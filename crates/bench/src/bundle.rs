//! A trained model bundle for one dataset: TabBiN family plus all baselines,
//! sharing the corpus-trained tokenizer as the paper's models share the
//! BioBERT vocabulary.

use tabbin_baselines::bert::{BertConfig, BertPretrainOptions, BertSim};
use tabbin_baselines::tuta::TutaSim;
use tabbin_baselines::word2vec::{tokenize, Word2Vec, Word2VecConfig};
use tabbin_core::config::ModelConfig;
use tabbin_core::pretrain::PretrainOptions;
use tabbin_core::variants::TabBiNFamily;
use tabbin_corpus::{generate, Corpus, Dataset, GenOptions};
use tabbin_table::Table;

/// Experiment-scale knobs, overridable from the environment:
/// `TABBIN_TABLES` (tables per corpus), `TABBIN_STEPS` (pre-train steps per
/// model), `TABBIN_SEED`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExpConfig {
    /// Tables per generated corpus.
    pub n_tables: usize,
    /// Pre-training steps per model.
    pub steps: usize,
    /// Base seed.
    pub seed: u64,
    /// Retrieval cutoff (the paper uses 20).
    pub k: usize,
    /// Maximum queries sampled per evaluation.
    pub max_queries: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self { n_tables: 60, steps: 60, seed: 42, k: 20, max_queries: 40 }
    }
}

impl ExpConfig {
    /// Reads overrides from the environment; see [`ExpConfig::from_lookup`].
    pub fn from_env() -> Result<Self, String> {
        Self::from_lookup(|name| std::env::var(name).ok())
    }

    /// The default configuration with the `TABBIN_*` overrides that `lookup`
    /// finds applied. A value that does not parse is an error naming the
    /// variable and the value, never a silent fallback to the default.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let d = Self::default();
        Ok(Self {
            n_tables: read_var(&lookup, "TABBIN_TABLES", d.n_tables)?,
            steps: read_var(&lookup, "TABBIN_STEPS", d.steps)?,
            seed: read_var(&lookup, "TABBIN_SEED", d.seed)?,
            ..d
        })
    }
}

fn read_var<T: std::str::FromStr>(
    lookup: &dyn Fn(&str) -> Option<String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match lookup(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name}={v:?} is not a non-negative integer")),
    }
}

/// Generates `ds`'s corpus at `cfg`'s size and seed, and pre-trains a TabBiN
/// family of geometry `model_cfg` on it for `cfg.steps` steps. Returns the
/// corpus, its plain tables and the trained family. The one place a family is
/// trained: [`Bundle::train`] and the ablation study both call it.
pub fn train_family(
    ds: Dataset,
    cfg: &ExpConfig,
    model_cfg: ModelConfig,
) -> (Corpus, Vec<Table>, TabBiNFamily) {
    let corpus = generate(ds, &GenOptions { n_tables: Some(cfg.n_tables), seed: cfg.seed });
    let tables = corpus.plain_tables();
    let mut family = TabBiNFamily::new(&tables, model_cfg, cfg.seed);
    family.pretrain(
        &tables,
        &PretrainOptions { steps: cfg.steps, seed: cfg.seed, ..Default::default() },
    );
    (corpus, tables, family)
}

/// Word2Vec's training sentences: one per table row, its cells tokenized.
pub fn row_sentences<'a>(tables: impl IntoIterator<Item = &'a Table>) -> Vec<Vec<String>> {
    tables
        .into_iter()
        .flat_map(|t| {
            (0..t.n_rows()).map(move |i| t.row_text(i).iter().flat_map(|c| tokenize(c)).collect())
        })
        .collect()
}

/// Everything trained for one dataset.
pub struct Bundle {
    /// The generated corpus with ground truth.
    pub corpus: Corpus,
    /// The TabBiN four-model family.
    pub family: TabBiNFamily,
    /// TUTA-style baseline.
    pub tuta: TutaSim,
    /// BioBERT-style flat baseline.
    pub bert: BertSim,
    /// Word2Vec baseline.
    pub w2v: Word2Vec,
}

impl Bundle {
    /// Generates the corpus and trains every model.
    pub fn train(ds: Dataset, cfg: &ExpConfig) -> Self {
        let model_cfg = ModelConfig::default();
        let (corpus, tables, family) = train_family(ds, cfg, model_cfg);

        let vocab = family.tokenizer.vocab_size();
        let mut tuta = TutaSim::new(model_cfg, vocab, cfg.seed ^ 0xaaaa);
        let opts = PretrainOptions { steps: cfg.steps, seed: cfg.seed, ..Default::default() };
        tuta.pretrain(&tables, &family.tokenizer, &opts);

        let bert_cfg = BertConfig {
            hidden: model_cfg.hidden,
            layers: model_cfg.layers,
            heads: model_cfg.heads,
            ff: model_cfg.ff,
            max_seq: model_cfg.max_seq,
        };
        let mut bert = BertSim::new(bert_cfg, vocab, cfg.seed ^ 0xbbbb);
        let seqs: Vec<Vec<u32>> = tables
            .iter()
            .map(|t| BertSim::linearize(t, &family.tokenizer, model_cfg.max_seq))
            .collect();
        bert.pretrain(
            &seqs,
            &BertPretrainOptions {
                steps: cfg.steps,
                seed: cfg.seed ^ 0xcccc,
                ..Default::default()
            },
        );

        let (w2v, _) = Word2Vec::train(
            &row_sentences(&tables),
            &Word2VecConfig { dim: 32, epochs: 6, seed: cfg.seed ^ 0xdddd, ..Default::default() },
        );

        Self { corpus, family, tuta, bert, w2v }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup<'a>(vars: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |name| vars.iter().find(|(k, _)| *k == name).map(|(_, v)| v.to_string())
    }

    #[test]
    fn from_lookup_applies_overrides() {
        assert_eq!(ExpConfig::from_lookup(lookup(&[])).unwrap(), ExpConfig::default());
        let cfg = ExpConfig::from_lookup(lookup(&[
            ("TABBIN_TABLES", "24"),
            ("TABBIN_STEPS", "8"),
            ("TABBIN_SEED", "7"),
        ]))
        .unwrap();
        assert_eq!(cfg, ExpConfig { n_tables: 24, steps: 8, seed: 7, ..ExpConfig::default() });
    }

    #[test]
    fn from_lookup_rejects_malformed_values() {
        for (name, value) in [("TABBIN_STEPS", "6O"), ("TABBIN_TABLES", "-3"), ("TABBIN_SEED", "")]
        {
            let err = ExpConfig::from_lookup(lookup(&[(name, value)])).unwrap_err();
            assert!(err.contains(name) && err.contains(&format!("{value:?}")), "{err}");
        }
    }
}
