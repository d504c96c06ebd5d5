//! Row-major dense `f32` tensor with shape-checked operations.

use crate::kernels::{product_rows, Product};
use crate::lanes::Native;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Threshold (in multiply-accumulate operations) above which matrix
/// multiplication is parallelized across rows with `crossbeam`.
const PARALLEL_MATMUL_FLOPS: usize = 1 << 22;

/// A dense, row-major `f32` tensor.
///
/// Shapes are arbitrary-rank but the autograd layer works almost exclusively
/// with rank-1 and rank-2 tensors; higher ranks are supported for storage.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from raw data. Panics if `data.len()` does not match
    /// the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let expect: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            expect,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Self { shape: shape.to_vec(), data }
    }

    /// A tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self { shape: shape.to_vec(), data: vec![0.0; shape.iter().product()] }
    }

    /// A tensor filled with a constant.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self { shape: shape.to_vec(), data: vec![value; shape.iter().product()] }
    }

    /// A tensor of i.i.d. normal samples with the given standard deviation.
    pub fn randn(shape: &[usize], std: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n: usize = shape.iter().product();
        let mut data = Vec::with_capacity(n);
        // Box-Muller transform; `rand_distr` is intentionally not a dependency.
        while data.len() < n {
            let u1: f32 = rng.random::<f32>().max(1e-12);
            let u2: f32 = rng.random::<f32>();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Self { shape: shape.to_vec(), data }
    }

    /// A tensor of uniform samples in `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| rng.random_range(lo..hi)).collect();
        Self { shape: shape.to_vec(), data }
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of rows of a rank-2 tensor (or 1 for rank-1).
    pub fn rows(&self) -> usize {
        match self.shape.len() {
            1 => 1,
            2 => self.shape[0],
            r => {
                panic!("rows() requires rank 1 or 2, got rank {r} tensor of shape {:?}", self.shape)
            }
        }
    }

    /// Number of columns of a rank-1/2 tensor.
    pub fn cols(&self) -> usize {
        match self.shape.len() {
            1 => self.shape[0],
            2 => self.shape[1],
            r => {
                panic!("cols() requires rank 1 or 2, got rank {r} tensor of shape {:?}", self.shape)
            }
        }
    }

    /// Immutable view of the underlying data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its data.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor for rank-2 tensors.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Mutable element accessor for rank-2 tensors.
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 2);
        &mut self.data[r * self.shape[1] + c]
    }

    /// Immutable view of row `r` of a rank-2 tensor.
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert_eq!(self.shape.len(), 2);
        let c = self.shape[1];
        &self.data[r * c..(r + 1) * c]
    }

    /// Mutable view of row `r` of a rank-2 tensor.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert_eq!(self.shape.len(), 2);
        let c = self.shape[1];
        &mut self.data[r * c..(r + 1) * c]
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        let expect: usize = shape.iter().product();
        assert_eq!(self.data.len(), expect, "reshape element count mismatch");
        self.shape = shape.to_vec();
        self
    }

    /// Elementwise in-place addition. Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += *b;
        }
    }

    /// Elementwise in-place scaled addition: `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * *b;
        }
    }

    /// Elementwise sum returning a new tensor.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "add shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Tensor { shape: self.shape.clone(), data }
    }

    /// Elementwise difference returning a new tensor.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "sub shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect();
        Tensor { shape: self.shape.clone(), data }
    }

    /// Elementwise (Hadamard) product returning a new tensor.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "mul shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a * b).collect();
        Tensor { shape: self.shape.clone(), data }
    }

    /// Scales all elements by a constant, in place.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Sets all elements to zero without reallocating.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Matrix multiplication of rank-2 tensors: `[m,k] x [k,n] -> [m,n]`.
    ///
    /// Runs the register-tiled [`Product::AB`] kernel (see
    /// [`crate::kernels`] for its bit-identity contract) and splits the rows
    /// across `crossbeam` workers once the product is large enough and there
    /// is more than one CPU to run them.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.product(Product::AB, other)
    }

    /// `self ∘ other` for any of the three [`Product`]s the tape needs,
    /// reading both operands in place.
    pub(crate) fn product(&self, kind: Product, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be rank 2");
        assert_eq!(other.shape.len(), 2, "matmul rhs must be rank 2");
        let (m, k) = match kind {
            Product::AtB => (self.shape[1], self.shape[0]),
            Product::AB | Product::ABt => (self.shape[0], self.shape[1]),
        };
        let (k2, n) = match kind {
            Product::ABt => (other.shape[1], other.shape[0]),
            Product::AB | Product::AtB => (other.shape[0], other.shape[1]),
        };
        assert_eq!(k, k2, "matmul inner-dimension mismatch: {k} vs {k2}");
        let workers = if m * k * n >= PARALLEL_MATMUL_FLOPS && m >= 4 {
            matmul_workers(std::thread::available_parallelism().map_or(2, |p| p.get()))
        } else {
            1
        };
        let mut out = vec![0.0f32; m * n];
        product_split(kind, &self.data, &other.data, &mut out, [m, k, n], workers);
        Tensor { shape: vec![m, n], data: out }
    }

    /// Transpose of a rank-2 tensor.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose requires rank 2");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut data = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                data[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor { shape: vec![n, m], data }
    }

    /// Mean over rows of a rank-2 tensor, producing a `[1, n]` tensor.
    pub fn mean_rows(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2);
        let (m, n) = (self.shape[0], self.shape[1]);
        assert!(m > 0, "mean_rows of empty tensor");
        let mut data = vec![0.0f32; n];
        for i in 0..m {
            let row = &self.data[i * n..(i + 1) * n];
            for (acc, &v) in data.iter_mut().zip(row) {
                *acc += v;
            }
        }
        let inv = 1.0 / m as f32;
        for v in &mut data {
            *v *= inv;
        }
        Tensor { shape: vec![1, n], data }
    }

    /// Cosine similarity between two equal-length vectors (flattened).
    pub fn cosine(&self, other: &Tensor) -> f32 {
        assert_eq!(self.len(), other.len(), "cosine length mismatch");
        let mut dot = 0.0f32;
        let mut na = 0.0f32;
        let mut nb = 0.0f32;
        for (a, b) in self.data.iter().zip(&other.data) {
            dot += a * b;
            na += a * a;
            nb += b * b;
        }
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na.sqrt() * nb.sqrt())
        }
    }
}

/// Worker threads for a product above [`PARALLEL_MATMUL_FLOPS`] on `cpus`
/// CPUs: at most eight, and one — the caller's own thread, no spawn — when
/// there is one CPU.
fn matmul_workers(cpus: usize) -> usize {
    cpus.clamp(1, 8)
}

/// `product(a, b)` into `out` on `workers` threads, each computing a run of
/// whole rows; one worker runs inline.
fn product_split(
    kind: Product,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    dims: [usize; 3],
    workers: usize,
) {
    let [m, _, n] = dims;
    if workers <= 1 || n == 0 {
        return product_rows::<Native>(kind, a, b, out, 0, dims);
    }
    let rows_per = m.div_ceil(workers);
    crossbeam::scope(|scope| {
        for (t, chunk) in out.chunks_mut(rows_per * n).enumerate() {
            scope.spawn(move |_| product_rows::<Native>(kind, a, b, chunk, t * rows_per, dims));
        }
    })
    .expect("matmul worker panicked");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "rows() requires rank 1 or 2, got rank 3 tensor of shape [2, 2, 1]")]
    fn rows_of_rank3_panics_with_shape() {
        let _ = Tensor::from_vec(vec![0.0; 4], &[2, 2, 1]).rows();
    }

    #[test]
    #[should_panic(expected = "cols() requires rank 1 or 2, got rank 3 tensor of shape [1, 2, 2]")]
    fn cols_of_rank3_panics_with_shape() {
        let _ = Tensor::from_vec(vec![0.0; 4], &[1, 2, 2]).cols();
    }

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.at(0, 1), 2.0);
        assert_eq!(t.at(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_shape_mismatch_panics() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::randn(&[5, 5], 1.0, 3);
        let mut eye = Tensor::zeros(&[5, 5]);
        for i in 0..5 {
            *eye.at_mut(i, i) = 1.0;
        }
        let c = a.matmul(&eye);
        for (x, y) in c.data().iter().zip(a.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    /// The scalar `ikj` product every kernel must reproduce bit for bit:
    /// rows `[row0, row0 + out.len()/n)` of `a x b` into `out`.
    fn matmul_rows(a: &[f32], b: &[f32], out: &mut [f32], row0: usize, k: usize, n: usize) {
        let rows = out.len() / n;
        for li in 0..rows {
            let i = row0 + li;
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[li * n..(li + 1) * n];
            for (p, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
    }

    fn bits(t: &[f32]) -> Vec<u32> {
        t.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn matmul_parallel_matches_serial() {
        // Large enough to trip the parallel path.
        let a = Tensor::randn(&[128, 256], 1.0, 11);
        let b = Tensor::randn(&[256, 160], 1.0, 13);
        let big = a.matmul(&b);
        // Serial reference.
        let mut refd = vec![0.0f32; 128 * 160];
        matmul_rows(a.data(), b.data(), &mut refd, 0, 256, 160);
        assert_eq!(bits(big.data()), bits(&refd), "parallel/serial divergence");
    }

    #[test]
    fn one_cpu_runs_the_product_inline_and_more_split_it_at_most_eight_ways() {
        assert_eq!(matmul_workers(1), 1);
        assert_eq!(matmul_workers(2), 2);
        assert_eq!(matmul_workers(16), 8);
        assert_eq!(matmul_workers(0), 1);
    }

    #[test]
    fn every_worker_count_gives_the_same_bits() {
        let a = Tensor::randn(&[37, 19], 1.0, 21);
        let b = Tensor::randn(&[19, 29], 1.0, 22);
        let mut refd = vec![0.0f32; 37 * 29];
        matmul_rows(a.data(), b.data(), &mut refd, 0, 19, 29);
        for workers in [1, 2, 3, 8] {
            let mut out = vec![f32::NAN; 37 * 29];
            product_split(Product::AB, a.data(), b.data(), &mut out, [37, 19, 29], workers);
            assert_eq!(bits(&out), bits(&refd), "{workers} workers");
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::randn(&[3, 7], 1.0, 5);
        let back = a.transpose().transpose();
        assert_eq!(a, back);
    }

    #[test]
    fn mean_rows_averages() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let m = a.mean_rows();
        assert_eq!(m.shape(), &[1, 2]);
        assert_eq!(m.data(), &[2.0, 3.0]);
    }

    #[test]
    fn cosine_of_parallel_vectors_is_one() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![2.0, 4.0, 6.0], &[3]);
        assert!((a.cosine(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_orthogonal_vectors_is_zero() {
        let a = Tensor::from_vec(vec![1.0, 0.0], &[2]);
        let b = Tensor::from_vec(vec![0.0, 1.0], &[2]);
        assert!(a.cosine(&b).abs() < 1e-6);
    }

    #[test]
    fn randn_has_roughly_requested_std() {
        let t = Tensor::randn(&[10_000], 2.0, 42);
        let mean = t.sum() / t.len() as f32;
        let var = t.data().iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / t.len() as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let a = Tensor::randn(&[16], 1.0, 9);
        let b = Tensor::randn(&[16], 1.0, 9);
        assert_eq!(a, b);
    }
}
