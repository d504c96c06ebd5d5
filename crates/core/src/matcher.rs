//! Binary entity matching head (Table 9).
//!
//! To compare against DITTO the paper adds "a linear layer followed by a
//! softmax layer on top of our TabBiN transformer layers" so TabBiN can
//! perform binary match/mismatch classification over entity pairs. This
//! module implements that head over pair feature vectors
//! `[a ⊕ b ⊕ |a−b| ⊕ a⊙b]` built from any embedding backend, so both TabBiN
//! and the baselines can be evaluated with the same protocol. Training runs
//! on the autograd tape, one tape reused for the whole run; prediction reads
//! the weights in place, with the tape's own products and softmax.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tabbin_tensor::nn::Linear;
use tabbin_tensor::ops::softmax_row;
use tabbin_tensor::optim::Adam;
use tabbin_tensor::{Graph, ParamStore, Tensor};

/// Nodes one training batch records on the tape: the input, each layer's
/// two parameters, product and bias, the activation and the loss.
const TAPE_NODES: usize = 11;

/// A labeled training/evaluation pair of entity embeddings.
#[derive(Clone, Debug)]
pub struct EmbeddedPair {
    /// First entity embedding.
    pub a: Vec<f32>,
    /// Second entity embedding.
    pub b: Vec<f32>,
    /// Ground-truth match label.
    pub matched: bool,
}

/// Training options for the matcher head.
#[derive(Clone, Copy, Debug)]
pub struct MatcherOptions {
    /// Training epochs over the pair set.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Mini-batch size.
    pub batch: usize,
    /// RNG seed for shuffling.
    pub seed: u64,
}

impl Default for MatcherOptions {
    fn default() -> Self {
        Self { epochs: 30, lr: 5e-3, batch: 16, seed: 23 }
    }
}

/// Linear + softmax binary classifier over pair features.
#[derive(Debug)]
pub struct EntityMatcher {
    store: ParamStore,
    hidden: Linear,
    head: Linear,
    dim: usize,
}

impl EntityMatcher {
    /// Builds a matcher for `dim`-dimensional entity embeddings.
    pub fn new(dim: usize, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let hidden = Linear::new(&mut store, "match.hidden", 4 * dim, 2 * dim, seed ^ 0x7a);
        let head = Linear::new(&mut store, "match.head", 2 * dim, 2, seed ^ 0x7b);
        Self { store, hidden, head, dim }
    }

    /// Pair feature vector `[a ⊕ b ⊕ |a−b| ⊕ a⊙b]`.
    fn features(&self, a: &[f32], b: &[f32]) -> Vec<f32> {
        assert_eq!(a.len(), self.dim, "pair dimension mismatch");
        assert_eq!(b.len(), self.dim, "pair dimension mismatch");
        let mut f = Vec::with_capacity(4 * self.dim);
        f.extend_from_slice(a);
        f.extend_from_slice(b);
        f.extend(a.iter().zip(b).map(|(x, y)| (x - y).abs()));
        f.extend(a.iter().zip(b).map(|(x, y)| x * y));
        f
    }

    /// Trains the head; returns the per-epoch mean loss.
    pub fn train(&mut self, pairs: &[EmbeddedPair], opts: &MatcherOptions) -> Vec<f32> {
        assert!(!pairs.is_empty(), "cannot train on an empty pair set");
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut opt = Adam::new(opts.lr);
        let mut curve = Vec::with_capacity(opts.epochs);
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        let mut g = Graph::with_capacity(TAPE_NODES);
        for _ in 0..opts.epochs {
            // Fisher-Yates shuffle.
            for i in (1..order.len()).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            let mut total = 0.0f32;
            let mut batches = 0usize;
            for chunk in order.chunks(opts.batch) {
                let n = chunk.len();
                let mut x = Tensor::zeros(&[n, 4 * self.dim]);
                let mut targets = Vec::with_capacity(n);
                for (r, &idx) in chunk.iter().enumerate() {
                    let p = &pairs[idx];
                    x.row_mut(r).copy_from_slice(&self.features(&p.a, &p.b));
                    targets.push(if p.matched { 1i64 } else { 0 });
                }
                g.reset();
                let xn = g.input(x);
                let h = self.hidden.forward(&mut g, &self.store, xn);
                let act = g.relu(h);
                let logits = self.head.forward(&mut g, &self.store, act);
                let loss = g.cross_entropy_rows(logits, &targets);
                total += g.value(loss).data()[0];
                batches += 1;
                g.backward(loss);
                g.accumulate_grads(&mut self.store);
                opt.step(&mut self.store);
                self.store.zero_grads();
            }
            curve.push(total / batches.max(1) as f32);
        }
        curve
    }

    /// Match probability for a pair.
    pub fn predict_proba(&self, a: &[f32], b: &[f32]) -> f32 {
        let x = Tensor::from_vec(self.features(a, b), &[1, 4 * self.dim]);
        let h = self.affine(&self.hidden, &x).map(|v| v.max(0.0));
        let logits = self.affine(&self.head, &h);
        let mut p = [0.0; 2];
        softmax_row(logits.data(), &mut p);
        p[1]
    }

    /// `x · W + b` for one layer over a one-row `x`, as the tape's
    /// `matmul` + `add_row` compute it.
    fn affine(&self, lin: &Linear, x: &Tensor) -> Tensor {
        let mut y = x.matmul(self.store.value(lin.w));
        for (o, &b) in y.data_mut().iter_mut().zip(self.store.value(lin.b).data()) {
            *o += b;
        }
        y
    }

    /// Hard match decision at threshold 0.5.
    pub fn predict(&self, a: &[f32], b: &[f32]) -> bool {
        self.predict_proba(a, b) >= 0.5
    }

    /// F1 score (%) of the matcher over labeled pairs, as Table 9 reports.
    pub fn f1_percent(&self, pairs: &[EmbeddedPair]) -> f64 {
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut fn_ = 0usize;
        for p in pairs {
            let pred = self.predict(&p.a, &p.b);
            match (pred, p.matched) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fn_ += 1,
                (false, false) => {}
            }
        }
        if tp == 0 {
            return 0.0;
        }
        let precision = tp as f64 / (tp + fp) as f64;
        let recall = tp as f64 / (tp + fn_) as f64;
        100.0 * 2.0 * precision * recall / (precision + recall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic separable pairs: matched pairs are near-duplicates, negative
    /// pairs are unrelated directions.
    fn toy_pairs(n: usize, dim: usize, seed: u64) -> Vec<EmbeddedPair> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(2 * n);
        for _ in 0..n {
            let base: Vec<f32> = (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect();
            let close: Vec<f32> = base.iter().map(|v| v + rng.random_range(-0.05..0.05)).collect();
            out.push(EmbeddedPair { a: base.clone(), b: close, matched: true });
            let far: Vec<f32> = (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect();
            out.push(EmbeddedPair { a: base, b: far, matched: false });
        }
        out
    }

    #[test]
    fn learns_separable_pairs() {
        let train = toy_pairs(60, 8, 1);
        let test = toy_pairs(30, 8, 2);
        let mut m = EntityMatcher::new(8, 3);
        let curve = m.train(&train, &MatcherOptions { epochs: 25, ..Default::default() });
        assert!(curve.last().unwrap() < &curve[0], "loss should fall");
        let f1 = m.f1_percent(&test);
        assert!(f1 > 80.0, "F1 too low: {f1}");
    }

    #[test]
    fn predict_proba_equals_the_tape_forward() {
        let pairs = toy_pairs(20, 6, 9);
        let mut m = EntityMatcher::new(6, 4);
        m.train(&pairs, &MatcherOptions { epochs: 3, ..Default::default() });
        for p in &pairs {
            let mut g = Graph::new();
            let x = g.input(Tensor::from_vec(m.features(&p.a, &p.b), &[1, 24]));
            let h = m.hidden.forward(&mut g, &m.store, x);
            let act = g.relu(h);
            let logits = m.head.forward(&mut g, &m.store, act);
            let prob = g.softmax_rows(logits);
            assert_eq!(m.predict_proba(&p.a, &p.b).to_bits(), g.value(prob).at(0, 1).to_bits());
        }
    }

    #[test]
    fn predict_proba_in_unit_interval() {
        let m = EntityMatcher::new(4, 5);
        let p = m.predict_proba(&[0.1, 0.2, 0.3, 0.4], &[0.1, 0.2, 0.3, 0.4]);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_wrong_dimension() {
        let m = EntityMatcher::new(4, 5);
        let _ = m.predict(&[0.0; 3], &[0.0; 4]);
    }

    #[test]
    fn f1_of_perfect_predictions() {
        // With no training the head is near-random; craft a degenerate test
        // where every pair is predicted positive by construction: train
        // quickly on all-positive data.
        let pairs: Vec<EmbeddedPair> = (0..10)
            .map(|i| EmbeddedPair { a: vec![i as f32; 4], b: vec![i as f32; 4], matched: true })
            .collect();
        let mut m = EntityMatcher::new(4, 7);
        m.train(&pairs, &MatcherOptions { epochs: 10, ..Default::default() });
        let f1 = m.f1_percent(&pairs);
        assert!(f1 > 99.0, "all-positive training set should be learnable: {f1}");
    }
}
