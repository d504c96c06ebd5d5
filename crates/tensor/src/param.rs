//! Persistent trainable parameters shared across training steps.

use crate::Tensor;
use serde::{Deserialize, Serialize};

/// Handle to a parameter registered in a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The raw index of this parameter inside its store.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One named parameter: value, gradient accumulator, and optimizer state.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct ParamSlot {
    pub name: String,
    pub value: Tensor,
    pub grad: Tensor,
    /// Adam first-moment estimate (lazily sized with the value).
    pub m: Tensor,
    /// Adam second-moment estimate.
    pub v: Tensor,
}

/// A flat store of named trainable parameters.
///
/// The store outlives individual [`crate::Graph`] tapes: each training step
/// builds a fresh tape referencing parameters by [`ParamId`], backpropagates,
/// and folds the resulting gradients back into the store with
/// [`crate::Graph::accumulate_grads`].
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ParamStore {
    pub(crate) slots: Vec<ParamSlot>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new parameter and returns its handle.
    ///
    /// Names are informational (used by serialization and debugging); they do
    /// not have to be unique, though unique names make saved checkpoints
    /// easier to inspect.
    pub fn register(&mut self, name: &str, value: Tensor) -> ParamId {
        let shape = value.shape().to_vec();
        self.slots.push(ParamSlot {
            name: name.to_string(),
            grad: Tensor::zeros(&shape),
            m: Tensor::zeros(&shape),
            v: Tensor::zeros(&shape),
            value,
        });
        ParamId(self.slots.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total number of trainable scalar values.
    pub fn scalar_count(&self) -> usize {
        self.slots.iter().map(|s| s.value.len()).sum()
    }

    /// Immutable access to a parameter value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.slots[id.0].value
    }

    /// Mutable access to a parameter value (e.g. for manual initialization).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.slots[id.0].value
    }

    /// Immutable access to a parameter's accumulated gradient.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.slots[id.0].grad
    }

    /// Adds `g` into the gradient accumulator of `id`.
    pub fn accumulate(&mut self, id: ParamId, g: &Tensor) {
        self.slots[id.0].grad.add_assign(g);
    }

    /// Resets all gradient accumulators to zero.
    pub fn zero_grads(&mut self) {
        for slot in &mut self.slots {
            slot.grad.fill_zero();
        }
    }

    /// The name a parameter was registered under.
    pub fn name(&self, id: ParamId) -> &str {
        &self.slots[id.0].name
    }

    /// Iterates over `(id, name)` pairs.
    pub fn iter_ids(&self) -> impl Iterator<Item = (ParamId, &str)> {
        self.slots.iter().enumerate().map(|(i, s)| (ParamId(i), s.name.as_str()))
    }

    /// Global gradient-norm clipping: scales all gradients so their joint L2
    /// norm does not exceed `max_norm`. Returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let total: f32 = grad_sq_norms(&self.slots).into_iter().sum();
        let norm = total.sqrt();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for slot in &mut self.slots {
                slot.grad.scale(scale);
            }
        }
        norm
    }
}

/// [`Tensor::sq_norm`] of every slot's gradient, in slot order. Each is the
/// same left-to-right sum; the slots go two at a time, longest first, so
/// two independent add chains overlap instead of waiting on each other.
fn grad_sq_norms(slots: &[ParamSlot]) -> Vec<f32> {
    let mut norms = vec![0.0; slots.len()];
    let mut order: Vec<usize> = (0..slots.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(slots[i].grad.len()));
    for pair in order.chunks(2) {
        let x = slots[pair[0]].grad.data();
        let y = pair.get(1).map_or(&[][..], |&i| slots[i].grad.data());
        let (mut sx, mut sy) = (-0.0f32, -0.0f32);
        for (a, b) in x.iter().zip(y) {
            sx += a * a;
            sy += b * b;
        }
        for a in &x[y.len()..] {
            sx += a * a;
        }
        norms[pair[0]] = sx;
        if let Some(&i) = pair.get(1) {
            norms[i] = sy;
        }
    }
    norms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grad_sq_norms_are_each_slots_sq_norm_bit_for_bit() {
        let mut s = ParamStore::new();
        for (i, len) in [5usize, 0, 17, 3, 17, 1].into_iter().enumerate() {
            let id = s.register("p", Tensor::zeros(&[len]));
            s.accumulate(id, &Tensor::randn(&[len], 1.0, i as u64));
        }
        let norms = grad_sq_norms(&s.slots);
        for (slot, norm) in s.slots.iter().zip(norms) {
            assert_eq!(norm.to_bits(), slot.grad.sq_norm().to_bits());
        }
    }

    #[test]
    fn register_and_lookup() {
        let mut s = ParamStore::new();
        let id = s.register("w", Tensor::zeros(&[2, 3]));
        assert_eq!(s.value(id).shape(), &[2, 3]);
        assert_eq!(s.name(id), "w");
        assert_eq!(s.len(), 1);
        assert_eq!(s.scalar_count(), 6);
    }

    #[test]
    fn accumulate_and_zero() {
        let mut s = ParamStore::new();
        let id = s.register("w", Tensor::zeros(&[2]));
        s.accumulate(id, &Tensor::from_vec(vec![1.0, 2.0], &[2]));
        s.accumulate(id, &Tensor::from_vec(vec![1.0, 2.0], &[2]));
        assert_eq!(s.grad(id).data(), &[2.0, 4.0]);
        s.zero_grads();
        assert_eq!(s.grad(id).data(), &[0.0, 0.0]);
    }

    #[test]
    fn clip_grad_norm_scales_down() {
        let mut s = ParamStore::new();
        let id = s.register("w", Tensor::zeros(&[2]));
        s.accumulate(id, &Tensor::from_vec(vec![3.0, 4.0], &[2]));
        let pre = s.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        let g = s.grad(id);
        assert!((g.sq_norm().sqrt() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_grad_norm_leaves_small_grads() {
        let mut s = ParamStore::new();
        let id = s.register("w", Tensor::zeros(&[2]));
        s.accumulate(id, &Tensor::from_vec(vec![0.3, 0.4], &[2]));
        s.clip_grad_norm(1.0);
        assert_eq!(s.grad(id).data(), &[0.3, 0.4]);
    }
}
