//! First-order optimizers operating directly on a [`ParamStore`].

use crate::ParamStore;

/// Adam optimizer (Kingma & Ba) with bias correction, matching the paper's
/// training setup (they use Adam with lr 2e-5 at BERT scale; we default higher
/// because our models are far narrower).
#[derive(Clone, Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical-stability constant.
    pub eps: f32,
    /// Decoupled weight decay (AdamW style); zero disables it.
    pub weight_decay: f32,
    t: u64,
}

impl Adam {
    /// Adam with the standard betas and no weight decay.
    pub fn new(lr: f32) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.0, t: 0 }
    }

    /// Sets decoupled weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one update using the gradients accumulated in `store`.
    /// Gradients are *not* zeroed; call [`ParamStore::zero_grads`] after.
    pub fn step(&mut self, store: &mut ParamStore) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let Adam { lr, beta1, beta2, eps, weight_decay, .. } = *self;
        for slot in &mut store.slots {
            // Zipped slices, so the loop vectorizes; each element's
            // arithmetic is the same sequence of IEEE operations.
            let w = slot.value.data_mut().iter_mut();
            let mv = slot.m.data_mut().iter_mut().zip(slot.v.data_mut());
            for ((w, (m, v)), &g) in w.zip(mv).zip(slot.grad.data()) {
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                let mut upd = mhat / (vhat.sqrt() + eps);
                if weight_decay > 0.0 {
                    upd += weight_decay * *w;
                }
                *w -= lr * upd;
            }
        }
    }
}

/// Plain stochastic gradient descent with optional momentum.
#[derive(Clone, Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient; zero means vanilla SGD.
    pub momentum: f32,
}

impl Sgd {
    /// Vanilla SGD.
    pub fn new(lr: f32) -> Self {
        Self { lr, momentum: 0.0 }
    }

    /// SGD with classical momentum (velocity stored in the Adam `m` slot).
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Self { lr, momentum }
    }

    /// Applies one update; gradients are not zeroed.
    pub fn step(&mut self, store: &mut ParamStore) {
        for slot in &mut store.slots {
            let g = slot.grad.data();
            let w = slot.value.data_mut();
            if self.momentum > 0.0 {
                let vel = slot.m.data_mut();
                for i in 0..g.len() {
                    vel[i] = self.momentum * vel[i] + g[i];
                    w[i] -= self.lr * vel[i];
                }
            } else {
                for i in 0..g.len() {
                    w[i] -= self.lr * g[i];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, Tensor};

    /// Minimizes (w - 3)^2 with each optimizer; both must converge.
    fn converges(mut step: impl FnMut(&mut ParamStore)) -> f32 {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::zeros(&[1, 1]));
        for _ in 0..400 {
            let mut g = Graph::new();
            let wn = g.param(&store, w);
            let c = g.input(Tensor::from_vec(vec![3.0], &[1, 1]));
            let diff = g.sub(wn, c);
            let sq = g.mul(diff, diff);
            let loss = g.mean_all(sq);
            g.backward(loss);
            g.accumulate_grads(&mut store);
            step(&mut store);
            store.zero_grads();
        }
        store.value(w).data()[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.05);
        let w = converges(|s| opt.step(s));
        assert!((w - 3.0).abs() < 0.05, "adam ended at {w}");
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        let w = converges(|s| opt.step(s));
        assert!((w - 3.0).abs() < 0.05, "sgd ended at {w}");
    }

    #[test]
    fn sgd_momentum_converges() {
        let mut opt = Sgd::with_momentum(0.02, 0.9);
        let w = converges(|s| opt.step(s));
        assert!((w - 3.0).abs() < 0.1, "sgd+momentum ended at {w}");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::full(&[1, 1], 5.0));
        let mut opt = Adam::new(0.1).with_weight_decay(0.5);
        // No gradient signal: only decay acts.
        for _ in 0..50 {
            opt.step(&mut store);
        }
        assert!(store.value(w).data()[0].abs() < 5.0);
    }
}
