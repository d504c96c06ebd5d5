//! DITTO-style entity matcher (Table 9).
//!
//! DITTO fine-tunes a pre-trained language model for binary match/mismatch
//! classification over `COL … VAL …` serialized entity pairs. This
//! simulation keeps the protocol: a [`BertSim`] encoder is MLM-pre-trained
//! on the pair corpus through the shared `pretrain`, then a classification
//! head is trained on embedded pairs.

use crate::bert::BertSim;
use tabbin_core::config::ModelConfig;
use tabbin_core::encoding::EncodedSequence;
use tabbin_core::matcher::{EmbeddedPair, EntityMatcher, MatcherOptions};
use tabbin_core::pretrain::{pretrain, PretrainOptions};
use tabbin_corpus::EmPair;
use tabbin_tokenizer::Tokenizer;

/// Training options for the full DITTO pipeline.
#[derive(Clone, Copy, Debug)]
pub struct DittoOptions {
    /// Encoder MLM pre-training steps.
    pub pretrain_steps: usize,
    /// Head training epochs.
    pub head_epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DittoOptions {
    fn default() -> Self {
        Self { pretrain_steps: 120, head_epochs: 60, seed: 31 }
    }
}

/// Width of the hashed bag-of-tokens block appended to the contextual
/// embedding. DITTO is a *cross-encoder*: its classification token attends
/// jointly over both serializations, making it directly sensitive to token
/// overlap. Our frozen bi-encoder head cannot recover that signal from
/// mean-pooled vectors alone, so the lexical channel is restored explicitly
/// with a hashed token-count block (`|a-b|` over it ≈ token overlap).
const LEX_DIM: usize = 32;

/// The trained matcher.
#[derive(Debug)]
pub struct DittoSim {
    encoder: BertSim,
    tokenizer: Tokenizer,
    head: EntityMatcher,
}

fn hashed_bag(text: &str) -> Vec<f32> {
    // Character trigrams rather than whole tokens: entity-matching noise is
    // typos/abbreviations, under which trigram overlap stays high for true
    // matches and low for distinct names.
    let mut v = vec![0.0f32; LEX_DIM];
    for tok in text.split_whitespace() {
        if tok == "COL" || tok == "VAL" {
            continue;
        }
        let padded: Vec<u8> =
            std::iter::once(b'^').chain(tok.bytes()).chain(std::iter::once(b'$')).collect();
        for w in padded.windows(3.min(padded.len())) {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for &b in w {
                h ^= b as u64;
                h = h.wrapping_mul(0x1_0000_01b3);
            }
            v[(h % LEX_DIM as u64) as usize] += 1.0;
        }
    }
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in &mut v {
            *x /= norm;
        }
    }
    v
}

fn embed_with(encoder: &BertSim, tokenizer: &Tokenizer, text: &str) -> Vec<f32> {
    let mut e = encoder.embed_text(text, tokenizer);
    e.extend(hashed_bag(text));
    e
}

impl DittoSim {
    fn embed(&self, text: &str) -> Vec<f32> {
        embed_with(&self.encoder, &self.tokenizer, text)
    }

    /// Trains encoder (at [`ModelConfig::tiny`]'s geometry) and head on
    /// `train` pairs.
    pub fn train(train: &[EmPair], opts: &DittoOptions) -> Self {
        let cfg = ModelConfig::tiny();
        // Tokenizer from the pair texts themselves (RoBERTa vocabulary
        // stand-in).
        let texts: Vec<&str> = train.iter().flat_map(|p| [p.a.as_str(), p.b.as_str()]).collect();
        let tokenizer = Tokenizer::train(texts.iter().copied(), 4000, 1);
        let mut encoder = BertSim::new(cfg, tokenizer.vocab_size(), opts.seed);
        let sequences: Vec<EncodedSequence> =
            texts.iter().map(|t| encoder.encode_text(t, &tokenizer)).collect();
        pretrain(
            &mut encoder.model,
            &sequences,
            &PretrainOptions {
                steps: opts.pretrain_steps,
                seed: opts.seed ^ 0x55,
                ..Default::default()
            },
        );
        let dim = cfg.hidden + LEX_DIM;
        let embedded: Vec<EmbeddedPair> = train
            .iter()
            .map(|p| EmbeddedPair {
                a: embed_with(&encoder, &tokenizer, &p.a),
                b: embed_with(&encoder, &tokenizer, &p.b),
                matched: p.matched,
            })
            .collect();
        let mut head = EntityMatcher::new(dim, opts.seed ^ 0x66);
        head.train(
            &embedded,
            &MatcherOptions {
                epochs: opts.head_epochs,
                seed: opts.seed ^ 0x77,
                ..Default::default()
            },
        );
        Self { encoder, tokenizer, head }
    }

    /// Predicts a match for a serialized pair.
    pub fn predict(&self, a: &str, b: &str) -> bool {
        self.head.predict(&self.embed(a), &self.embed(b))
    }

    /// F1 (%) over labeled test pairs, as Table 9 reports.
    pub fn f1_percent(&self, test: &[EmPair]) -> f64 {
        let embedded: Vec<EmbeddedPair> = test
            .iter()
            .map(|p| EmbeddedPair { a: self.embed(&p.a), b: self.embed(&p.b), matched: p.matched })
            .collect();
        self.head.f1_percent(&embedded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabbin_corpus::amazon_google_like;

    #[test]
    fn ditto_learns_product_matching() {
        let train = amazon_google_like(60, 60, 1);
        let test = amazon_google_like(25, 25, 2);
        let model =
            DittoSim::train(&train, &DittoOptions { pretrain_steps: 20, head_epochs: 20, seed: 3 });
        let f1 = model.f1_percent(&test);
        assert!(f1 > 55.0, "DITTO-sim F1 too low: {f1}");
    }

    #[test]
    fn predict_is_deterministic() {
        let train = amazon_google_like(20, 20, 4);
        let model =
            DittoSim::train(&train, &DittoOptions { pretrain_steps: 5, head_epochs: 5, seed: 5 });
        let p = &train[0];
        assert_eq!(model.predict(&p.a, &p.b), model.predict(&p.a, &p.b));
    }
}
