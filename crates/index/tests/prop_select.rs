//! The quantized tier pinned bitwise — ids and score bits — to a brute-force
//! reference written from public primitives alone: sign every probed live
//! row and the query at the router's thresholds (bit `j` is
//! `dot(P_j, v) ≥ dot(P_j, μ)` for the IVF router's sample mean μ, and
//! `dot(P_j, v) ≥ 0` under hash routing), sort the rows by (Hamming
//! distance, id), keep `r = rerank_factor × k`, dot re-rank them, keep `k`.
//! Whatever the store does to get there (counting select,
//! location-addressed re-rank, shard layout, tombstones left in place), it
//! must land on exactly that list.
//!
//! The corpora include **concentrated** rows — one large shared component
//! plus small noise. Signed through the origin (hash routing) most
//! distances are 0–3 bits and hundreds of rows tie at the cut, the regime
//! uncentred TabBiN embeddings put the `e2e` benchmark in; centred on the
//! IVF router's mean, the same rows spread across the signature width.
//! Geometries cover 16, 128 and 320 signature bits (one, two and five packed
//! words: the fixed-width and the wide Hamming kernels).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use tabbin_index::lsh::{pack_signature, random_planes, signature_of};
use tabbin_index::simd::{dot, hamming};
use tabbin_index::{
    CompactionPolicy, ExactScan, Hit, IvfRouter, LshCandidates, LshParams, Router, ShardedStore,
    StoreConfig, DEFAULT_RERANK_FACTOR,
};

const DIM: usize = 16;
const SHARD_COUNTS: [usize; 3] = [1, 4, 16];

/// `n` rows: a shared unit-length base direction plus per-component noise
/// of scale `noise`. At `noise` 0.01 nearly every hyperplane sees the
/// base's sign, so distances pile up in the first few bits; at 1.0 they
/// spread.
fn corpus(n: usize, noise: f32, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut base: Vec<f32> = (0..DIM).map(|_| rng.random_range(-1.0f32..1.0)).collect();
    let norm = base.iter().map(|x| x * x).sum::<f32>().sqrt();
    base.iter_mut().for_each(|x| *x /= norm);
    (0..n)
        .map(|_| base.iter().map(|b| b + noise * rng.random_range(-1.0f32..1.0)).collect())
        .collect()
}

/// Signature geometries: 16 bits (one word), `default_blocking`'s 128 (two
/// words, the production shape) and 320 (five words, the wide kernel).
fn geometry(code: usize) -> LshParams {
    [LshParams::default(), LshParams::default_blocking(), LshParams::new(20, 16)][code]
}

/// Several small segments per shard; compaction off so tombstones stay in
/// place where the Hamming pass must step over them.
fn config(params: LshParams, seed: u64) -> StoreConfig {
    StoreConfig {
        seal_threshold: 24,
        seed,
        policy: CompactionPolicy::disabled(),
        ..StoreConfig::quantized(params)
    }
}

/// A store under test plus everything the reference needs to know about it.
struct Fixture {
    store: ShardedStore,
    /// The IVF router when the store has one (`None` = hash, full fan-out).
    router: Option<Arc<IvfRouter>>,
    planes: Vec<Vec<f32>>,
    /// One threshold per plane: `dot(P_j, μ)` under the IVF router, zero
    /// under hash routing.
    thresholds: Vec<f32>,
    /// Every live id with its packed signature, signed from the stored
    /// (normalized) vector.
    live: BTreeMap<u64, Vec<u64>>,
}

impl Fixture {
    /// `items` inserted (ids = indices) over `n_shards` hash- or IVF-routed
    /// shards, then `n_mutations` scripted upserts and deletes.
    fn new(
        items: &[Vec<f32>],
        cfg: StoreConfig,
        n_shards: usize,
        ivf: bool,
        n_mutations: usize,
    ) -> Self {
        let router = ivf.then(|| Arc::new(IvfRouter::train(items, n_shards, cfg.seed)));
        let mut store = match &router {
            Some(r) => ShardedStore::with_router(DIM, n_shards, cfg, r.clone()),
            None => ShardedStore::new(DIM, n_shards, cfg),
        };
        let mut live = BTreeSet::new();
        for v in items {
            live.insert(store.insert(v));
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9e37));
        for _ in 0..n_mutations {
            let id = rng.random_range(0..items.len() as u64);
            if rng.random_range(0..3) == 0 {
                store.delete(id);
                live.remove(&id);
            } else {
                store.upsert(id, &items[rng.random_range(0..items.len())]);
                live.insert(id);
            }
        }
        let lsh = cfg.lsh.expect("quantized config has LSH");
        let planes = random_planes(lsh.bands * lsh.rows_per_band, DIM, cfg.seed);
        let thresholds = match &router {
            Some(r) => {
                planes.iter().map(|p| dot(p, r.mean().expect("IVF keeps its mean"))).collect()
            }
            None => vec![0.0; planes.len()],
        };
        let mut fx = Self { store, router, planes, thresholds, live: BTreeMap::new() };
        fx.live =
            live.into_iter().map(|id| (id, fx.sign(fx.store.get(id).expect("live id")))).collect();
        fx
    }

    /// `v`'s packed signature at the router's thresholds.
    fn sign(&self, v: &[f32]) -> Vec<u64> {
        let bits: Vec<bool> =
            self.planes.iter().zip(&self.thresholds).map(|(p, &t)| dot(p, v) >= t).collect();
        pack_signature(&bits)
    }

    fn delete(&mut self, id: u64) {
        assert!(self.store.delete(id), "{id} was live");
        self.live.remove(&id);
    }

    /// The probed live rows as `(distance, id, vector)`, sorted by
    /// (distance, id).
    fn coarse(&self, nq: &[f32], nprobe: usize) -> Vec<(u32, u64, &[f32])> {
        let n = self.store.n_shards();
        let probes: Vec<usize> = match &self.router {
            Some(r) => r.probe(nq, nprobe, n),
            None => (0..n).collect(),
        };
        let qsig = self.sign(nq);
        let mut rows: Vec<(u32, u64, &[f32])> = self
            .live
            .iter()
            .filter(|(&id, _)| probes.contains(&self.store.shard_of(id)))
            .map(|(&id, sig)| (hamming(&qsig, sig), id, self.store.get(id).expect("live id")))
            .collect();
        rows.sort_by_key(|&(d, id, _)| (d, id));
        rows
    }

    /// The brute-force quantized answer.
    fn reference(&self, q: &[f32], k: usize, nprobe: usize) -> Vec<(u64, u32)> {
        let nq = normalized(q);
        let mut scored: Vec<(u64, f32)> = self
            .coarse(&nq, nprobe)
            .into_iter()
            .take(k * DEFAULT_RERANK_FACTOR)
            .map(|(_, id, v)| (id, dot(&nq, v)))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.into_iter().take(k).map(|(id, s)| (id, s.to_bits())).collect()
    }

    /// Store and reference agree on `q` at every `k` of interest and every
    /// `nprobe`, under either named candidate source.
    fn check(&self, q: &[f32]) {
        for nprobe in 1..=self.store.n_shards() {
            for k in [0, 1, 3, 10] {
                let want = self.reference(q, k, nprobe);
                for got in [
                    self.store.search_probed(q, k, &ExactScan, nprobe),
                    self.store.search_probed(q, k, &LshCandidates, nprobe),
                ] {
                    assert!(
                        bits(&got) == want,
                        "k {}, nprobe {}/{}: {:?} vs {:?}",
                        k,
                        nprobe,
                        self.store.n_shards(),
                        bits(&got),
                        want
                    );
                }
            }
        }
    }
}

/// The store's normalization, written out: one pass of squares, one sqrt,
/// one division per component (zero vectors stay as they are).
fn normalized(q: &[f32]) -> Vec<f32> {
    let mut v = q.to_vec();
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in &mut v {
            *x /= norm;
        }
    }
    v
}

fn bits(hits: &[Hit]) -> Vec<(u64, u32)> {
    hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Hash / IVF routing × {1, 4, 16} shards × three signature widths ×
    /// concentrated or spread corpora, under upsert/delete churn: every
    /// query, every `nprobe`, `k` ∈ {0, 1, 3, 10} answers exactly the
    /// reference.
    #[test]
    fn quantized_tier_equals_the_brute_force_reference(
        seed in 0u64..10_000,
        cell in 0usize..6,
        geom in 0usize..3,
        concentrated in 0usize..4,
        n_mutations in 0usize..80,
    ) {
        let (ivf, n_shards) = (cell % 2 == 1, SHARD_COUNTS[cell / 2]);
        // Three cases in four run concentrated: that is the regime at stake.
        let noise = if concentrated == 0 { 1.0 } else { 0.01 };
        let items = corpus(240, noise, seed);
        let fx = Fixture::new(&items, config(geometry(geom), seed), n_shards, ivf, n_mutations);
        for q in items.iter().step_by(37) {
            fx.check(q);
        }
    }

    /// On concentrated signatures most rows are within 3 bits of the
    /// query and more rows tie at the cut than survive it (hundreds, for
    /// most seeds), so which of them survive is decided by id alone.
    #[test]
    fn concentrated_signatures_tie_past_r_at_the_cut_and_still_match(seed in 0u64..10_000) {
        let items = corpus(480, 0.01, seed);
        let fx = Fixture::new(&items, config(LshParams::default_blocking(), seed), 4, false, 0);
        // The corpus mean sits on the shared direction, in the thick of it.
        let q: Vec<f32> =
            (0..DIM).map(|j| items.iter().map(|v| v[j]).sum::<f32>() / items.len() as f32).collect();
        let coarse = fx.coarse(&normalized(&q), 4);
        let r = 10 * DEFAULT_RERANK_FACTOR;
        let cut = coarse[r - 1].0;
        let at_cut = coarse.iter().filter(|&&(d, _, _)| d == cut).count();
        let near = coarse.iter().filter(|&&(d, _, _)| d <= 3).count();
        prop_assert!(near * 4 >= coarse.len() * 3, "{} of {} rows within 3 bits", near, coarse.len());
        prop_assert!(at_cut > r, "only {} rows tie at the cut", at_cut);
        fx.check(&q);
    }

    /// `r` at or past the probed live rows keeps every one of them: the
    /// cut opens to the widest distance and the answer is the exact top-k
    /// of the probed cells.
    #[test]
    fn r_past_the_live_rows_keeps_every_probed_row(seed in 0u64..10_000, cell in 0usize..6) {
        let (ivf, n_shards) = (cell % 2 == 1, SHARD_COUNTS[cell / 2]);
        let items = corpus(32, 0.5, seed);
        let fx = Fixture::new(&items, config(LshParams::default_blocking(), seed), n_shards, ivf, 12);
        for q in items.iter().step_by(5) {
            fx.check(q);
            // k = 40 ⇒ r = 160 ≥ 32 rows: everything probed comes back.
            for nprobe in 1..=n_shards {
                let probed = fx.coarse(&normalized(q), nprobe).len();
                prop_assert_eq!(fx.store.search_probed(q, 40, &ExactScan, nprobe).len(), probed);
                prop_assert_eq!(bits(&fx.store.search_probed(q, 40, &ExactScan, nprobe)),
                    fx.reference(q, 40, nprobe));
            }
        }
    }

    /// Hash routing signs through the origin: the reference's thresholds are
    /// zero and its signatures are `signature_of`'s, bit for bit. Centred
    /// on the IVF router's mean, the concentrated corpus's distances spread
    /// out: most rows sit past 3 bits and the cut no longer ties past `r`.
    #[test]
    fn centring_on_the_router_mean_spreads_concentrated_signatures(seed in 0u64..10_000) {
        let items = corpus(480, 0.01, seed);
        let cfg = config(LshParams::default_blocking(), seed);
        let hash = Fixture::new(&items, cfg, 4, false, 0);
        for (id, sig) in hash.live.iter().step_by(23) {
            let v = hash.store.get(*id).expect("live id");
            prop_assert_eq!(sig, &pack_signature(&signature_of(&hash.planes, v)));
        }
        let ivf = Fixture::new(&items, cfg, 4, true, 0);
        let q = normalized(&items[7]);
        let coarse = ivf.coarse(&q, 4);
        let r = 10 * DEFAULT_RERANK_FACTOR;
        let cut = coarse[r - 1].0;
        let at_cut = coarse.iter().filter(|&&(d, _, _)| d == cut).count();
        let near = coarse.iter().filter(|&&(d, _, _)| d <= 3).count();
        prop_assert!(near * 4 < coarse.len(), "{} of {} rows within 3 bits", near, coarse.len());
        prop_assert!(at_cut <= r, "{} rows tie at the cut", at_cut);
        ivf.check(&items[7]);
    }

    /// Tombstones exactly at the cut distance (and under it) stay in their
    /// segments at the sentinel distance and never survive: the store still
    /// answers the reference over the live rows.
    #[test]
    fn tombstones_at_the_cut_never_survive(seed in 0u64..10_000, shard_code in 0usize..3) {
        let n_shards = SHARD_COUNTS[shard_code];
        let items = corpus(240, 0.01, seed);
        let mut fx =
            Fixture::new(&items, config(LshParams::default_blocking(), seed), n_shards, false, 0);
        let q = items[7].clone();
        let r = 10 * DEFAULT_RERANK_FACTOR;
        let coarse: Vec<(u32, u64)> =
            fx.coarse(&normalized(&q), n_shards).iter().map(|&(d, id, _)| (d, id)).collect();
        let cut = coarse[r - 1].0;
        // Delete the smallest ids at the cut (the ones that survived it)
        // and one row under it.
        let mut victims: Vec<u64> =
            coarse.iter().filter(|&&(d, _)| d == cut).map(|&(_, id)| id).take(5).collect();
        victims.extend(coarse.iter().find(|&&(d, _)| d < cut).map(|&(_, id)| id));
        for &id in &victims {
            fx.delete(id);
        }
        prop_assert_eq!(fx.store.stats().totals().tombstones, victims.len());
        fx.check(&q);
        let hits = fx.store.search(&q, 10, &ExactScan);
        prop_assert!(hits.iter().all(|h| !victims.contains(&h.id)), "a tombstone survived");
    }
}
