//! Gazetteers: curated term lists per semantic type.
//!
//! These stand in for the scispaCy/spaCy NER models plus the paper's "custom
//! list of named-entities, types, and noun-phrases ... such as vaccines,
//! treatments, therapies, prescriptions". Lists are intentionally the kinds
//! of vocabulary the synthetic corpora generate, so coverage is realistic
//! (high but not perfect, as with a real NER model).

use crate::SemType;
use std::collections::HashMap;

/// A term → type dictionary with multi-word support.
#[derive(Clone, Debug, Default)]
pub struct Gazetteer {
    terms: HashMap<String, SemType>,
}

impl Gazetteer {
    /// An empty gazetteer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The built-in gazetteer covering the reproduction corpora's domains
    /// (biomedical, government statistics, web entities).
    pub fn builtin() -> Self {
        let mut g = Self::new();
        g.extend(SemType::Disease, DISEASES);
        g.extend(SemType::Drug, DRUGS);
        g.extend(SemType::Chemical, CHEMICALS);
        g.extend(SemType::Vaccine, VACCINES);
        g.extend(SemType::Treatment, TREATMENTS);
        g.extend(SemType::Therapy, THERAPIES);
        g.extend(SemType::PersonName, NAMES);
        g.extend(SemType::Place, PLACES);
        g.extend(SemType::Organization, ORGS);
        g
    }

    /// Adds terms mapping to `ty` (lowercased).
    pub fn extend(&mut self, ty: SemType, terms: &[&str]) {
        for t in terms {
            self.terms.insert(t.to_ascii_lowercase(), ty);
        }
    }

    /// Exact lookup of a (lowercased) term.
    pub fn lookup(&self, term: &str) -> Option<SemType> {
        self.terms.get(&term.to_ascii_lowercase()).copied()
    }

    /// Looks up the longest matching term inside `text`: first the whole
    /// string, then each word. Returns the first hit by priority of whole
    /// phrase over single words.
    pub fn lookup_in(&self, text: &str) -> Option<SemType> {
        // Cell texts are short: lowercase on the stack, onto the heap only
        // past `STACK` bytes. ASCII lowercasing keeps UTF-8 valid.
        const STACK: usize = 64;
        let mut stack = [0u8; STACK];
        let heap;
        let lower = if text.len() <= STACK {
            let buf = &mut stack[..text.len()];
            buf.copy_from_slice(text.as_bytes());
            buf.make_ascii_lowercase();
            std::str::from_utf8(buf).expect("ASCII lowercasing keeps UTF-8 valid")
        } else {
            heap = text.to_ascii_lowercase();
            heap.as_str()
        };
        let trimmed = lower.trim();
        if let Some(t) = self.terms.get(trimmed) {
            return Some(*t);
        }
        for word in trimmed.split_whitespace() {
            let w = word.trim_matches(|c: char| !c.is_alphanumeric());
            if let Some(t) = self.terms.get(w) {
                return Some(*t);
            }
        }
        None
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the gazetteer is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

const DISEASES: &[&str] = &[
    "cancer",
    "carcinoma",
    "adenocarcinoma",
    "melanoma",
    "lymphoma",
    "leukemia",
    "tumor",
    "colorectal cancer",
    "colon cancer",
    "rectal cancer",
    "breast cancer",
    "lung cancer",
    "covid-19",
    "covid",
    "sars-cov-2",
    "influenza",
    "pneumonia",
    "sepsis",
    "diabetes",
    "hypertension",
    "asthma",
    "arthritis",
    "hepatitis",
    "metastasis",
    "polyp",
    "anemia",
    "neutropenia",
    "mucositis",
    "diarrhea",
    "fatigue",
    "nausea",
    "colitis",
];

const DRUGS: &[&str] = &[
    "ramucirumab",
    "bevacizumab",
    "cetuximab",
    "panitumumab",
    "regorafenib",
    "aflibercept",
    "fluorouracil",
    "capecitabine",
    "oxaliplatin",
    "irinotecan",
    "leucovorin",
    "trifluridine",
    "pembrolizumab",
    "nivolumab",
    "ipilimumab",
    "aspirin",
    "metformin",
    "remdesivir",
    "dexamethasone",
    "paxlovid",
    "molnupiravir",
    "heparin",
    "warfarin",
    "folfox",
    "folfiri",
];

const CHEMICALS: &[&str] = &[
    "fluoropyrimidine",
    "platinum",
    "oxalate",
    "glucose",
    "sodium",
    "potassium",
    "calcium",
    "creatinine",
    "bilirubin",
    "albumin",
    "hemoglobin",
    "cholesterol",
    "nitrogen",
    "oxygen",
    "carbon",
    "ethanol",
    "methanol",
    "acetate",
];

const VACCINES: &[&str] = &[
    "moderna",
    "covaxin",
    "pfizer",
    "biontech",
    "astrazeneca",
    "sputnik",
    "sinovac",
    "janssen",
    "novavax",
    "mrna-1273",
    "bnt162b2",
    "covishield",
    "booster",
];

const TREATMENTS: &[&str] = &[
    "chemotherapy",
    "surgery",
    "resection",
    "colectomy",
    "colonoscopy",
    "screening",
    "transplant",
    "dialysis",
    "intubation",
    "ventilation",
    "infusion",
    "prescription",
    "regimen",
    "dose escalation",
    "maintenance",
];

const THERAPIES: &[&str] = &[
    "immunotherapy",
    "radiotherapy",
    "targeted therapy",
    "hormone therapy",
    "gene therapy",
    "combination therapy",
    "monotherapy",
    "adjuvant therapy",
    "neoadjuvant therapy",
    "palliative care",
    "therapy",
];

const NAMES: &[&str] = &[
    "sam", "ava", "kim", "paul", "maria", "john", "wei", "fatima", "carlos", "yuki", "smith",
    "johnson", "garcia", "chen", "patel", "mueller", "kowalski", "rossi",
];

const PLACES: &[&str] = &[
    // Cities (the spaCy GPE tagger recognizes these reliably).
    "tallahassee",
    "tampa",
    "miami",
    "orlando",
    "atlanta",
    "boston",
    "chicago",
    "seattle",
    "houston",
    "denver",
    "portland",
    "austin",
    "phoenix",
    "detroit",
    "memphis",
    "omaha",
    "tucson",
    "raleigh",
    "usa",
    "london",
    "paris",
    "tokyo",
    "berlin",
    "madrid",
    "rome",
    // US states — basic NER coverage.
    "florida",
    "texas",
    "california",
    "georgia",
    "ohio",
    "alabama",
    "nevada",
    "oregon",
    "michigan",
    "virginia",
    "colorado",
    "arizona",
    "illinois",
    "washington",
    "montana",
    "kansas",
    "utah",
    "iowa",
];

const ORGS: &[&str] = &[
    "university",
    "college",
    "institute",
    "hospital",
    "clinic",
    "fbi",
    "census bureau",
    "fc",
    "united",
    "city fc",
    "rovers",
    "athletic",
    "ministry",
    "department",
    "agency",
    "pubmed",
    "who",
    "cdc",
    "nih",
    "fda",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_covers_paper_examples() {
        let g = Gazetteer::builtin();
        assert_eq!(g.lookup("ramucirumab"), Some(SemType::Drug));
        assert_eq!(g.lookup("colon cancer"), Some(SemType::Disease));
        assert_eq!(g.lookup("moderna"), Some(SemType::Vaccine));
        assert_eq!(g.lookup("immunotherapy"), Some(SemType::Therapy));
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let g = Gazetteer::builtin();
        assert_eq!(g.lookup("Ramucirumab"), Some(SemType::Drug));
        assert_eq!(g.lookup("MODERNA"), Some(SemType::Vaccine));
    }

    #[test]
    fn lookup_in_matches_phrases_then_words() {
        let g = Gazetteer::builtin();
        assert_eq!(g.lookup_in("metastatic colon cancer"), Some(SemType::Disease));
        assert_eq!(g.lookup_in("treated with ramucirumab weekly"), Some(SemType::Drug));
        assert_eq!(g.lookup_in("nothing matches here qqq"), None);
    }

    #[test]
    fn custom_extension() {
        let mut g = Gazetteer::new();
        g.extend(SemType::Organization, &["acme corp"]);
        assert_eq!(g.lookup("ACME Corp"), Some(SemType::Organization));
        assert_eq!(g.len(), 1);
    }
}
