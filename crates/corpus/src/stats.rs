//! Corpus-level statistics for the `table0_stats` experiment harness.

use crate::document::RfcDocument;

/// Aggregate corpus statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorpusStats {
    /// Number of documents.
    pub documents: usize,
    /// Total whitespace-separated words.
    pub words: usize,
    /// Total non-empty lines.
    pub lines: usize,
    /// Total sections.
    pub sections: usize,
}

impl CorpusStats {
    /// Computes statistics over a set of documents.
    pub fn for_documents(docs: &[RfcDocument]) -> CorpusStats {
        let mut s = CorpusStats { documents: docs.len(), ..CorpusStats::default() };
        for d in docs {
            s.words += d.word_count();
            s.sections += d.sections.len();
            s.lines += d.full_text().lines().filter(|l| !l.trim().is_empty()).count();
        }
        s
    }
}

impl std::fmt::Display for CorpusStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} documents, {} sections, {} non-empty lines, {} words",
            self.documents, self.sections, self.lines, self.words
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_over_core_corpus() {
        let docs = crate::core_documents();
        let s = CorpusStats::for_documents(&docs);
        assert_eq!(s.documents, 6);
        assert!(s.words > 5_000, "corpus unexpectedly small: {s}");
        assert!(s.sections > 30);
    }

    #[test]
    fn empty_corpus() {
        let s = CorpusStats::for_documents(&[]);
        assert_eq!(s, CorpusStats::default());
    }
}
