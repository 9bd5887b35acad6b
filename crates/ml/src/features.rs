//! Text featurization for search queries (Section 7.3).
//!
//! The paper builds a simple, interpretable feature vector per query:
//!
//! * a bag-of-words over the 500 most common words of the training queries,
//! * the number of ASCII characters in the query text,
//! * the number of punctuation marks,
//! * the number of dots, and
//! * the number of whitespace characters.
//!
//! [`TextFeaturizer`] fits the vocabulary on the training queries and
//! transforms any query string into that representation; the raw character
//! counts are also exposed as [`QueryFeatures`] so experiments can report
//! feature importances in the paper's terms.

use opthash_stream::Features;
use std::collections::HashMap;

/// The four character-count features the paper appends to the bag-of-words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryFeatures {
    /// Number of ASCII characters in the query text.
    pub ascii_chars: usize,
    /// Number of ASCII punctuation marks.
    pub punctuation: usize,
    /// Number of dots.
    pub dots: usize,
    /// Number of whitespace characters.
    pub whitespace: usize,
}

impl QueryFeatures {
    /// Computes the character-count features of a query string.
    pub fn of(query: &str) -> Self {
        let mut ascii_chars = 0;
        let mut punctuation = 0;
        let mut dots = 0;
        let mut whitespace = 0;
        for ch in query.chars() {
            if ch.is_ascii() {
                ascii_chars += 1;
            }
            if ch.is_ascii_punctuation() {
                punctuation += 1;
            }
            if ch == '.' {
                dots += 1;
            }
            if ch.is_whitespace() {
                whitespace += 1;
            }
        }
        QueryFeatures {
            ascii_chars,
            punctuation,
            dots,
            whitespace,
        }
    }

    /// The counts as a fixed-order `f64` vector
    /// (`[ascii, punctuation, dots, whitespace]`).
    pub fn to_vec(self) -> Vec<f64> {
        vec![
            self.ascii_chars as f64,
            self.punctuation as f64,
            self.dots as f64,
            self.whitespace as f64,
        ]
    }
}

/// Splits a query into lowercase word tokens, treating any non-alphanumeric
/// character as a separator (so `"www.google.com"` yields `www`, `google`,
/// `com`).
pub fn tokenize(query: &str) -> Vec<String> {
    query
        .to_lowercase()
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(str::to_owned)
        .collect()
}

/// Bag-of-words + character-count featurizer for query strings.
#[derive(Debug, Clone)]
pub struct TextFeaturizer {
    /// Vocabulary words in frequency order; index in this list = feature
    /// index.
    vocabulary: Vec<String>,
    /// Word → feature index.
    index: HashMap<String, usize>,
}

impl TextFeaturizer {
    /// Fits a featurizer on training queries, keeping the `vocab_size` most
    /// common words (ties broken lexicographically for determinism). The
    /// paper uses `vocab_size = 500`.
    pub fn fit<'a, I>(queries: I, vocab_size: usize) -> Self
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut counts: HashMap<String, usize> = HashMap::new();
        for q in queries {
            for token in tokenize(q) {
                *counts.entry(token).or_insert(0) += 1;
            }
        }
        let mut words: Vec<(String, usize)> = counts.into_iter().collect();
        words.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        words.truncate(vocab_size);
        let vocabulary: Vec<String> = words.into_iter().map(|(w, _)| w).collect();
        let index = vocabulary
            .iter()
            .enumerate()
            .map(|(i, w)| (w.clone(), i))
            .collect();
        TextFeaturizer { vocabulary, index }
    }

    /// Number of bag-of-words dimensions.
    pub fn vocab_size(&self) -> usize {
        self.vocabulary.len()
    }

    /// Total feature dimensionality (vocabulary + 4 count features).
    pub fn dim(&self) -> usize {
        self.vocabulary.len() + 4
    }

    /// The fitted vocabulary, most common word first.
    pub fn vocabulary(&self) -> &[String] {
        &self.vocabulary
    }

    /// Transforms one query into its feature vector: word counts over the
    /// vocabulary followed by the four character counts.
    pub fn transform(&self, query: &str) -> Features {
        let mut values = vec![0.0f64; self.dim()];
        for token in tokenize(query) {
            if let Some(&i) = self.index.get(&token) {
                values[i] += 1.0;
            }
        }
        let counts = QueryFeatures::of(query).to_vec();
        let offset = self.vocabulary.len();
        values[offset..offset + 4].copy_from_slice(&counts);
        Features::new(values)
    }

    /// Transforms many queries.
    pub fn transform_batch<'a, I>(&self, queries: I) -> Vec<Features>
    where
        I: IntoIterator<Item = &'a str>,
    {
        queries.into_iter().map(|q| self.transform(q)).collect()
    }

    /// Human-readable name of a feature index (a vocabulary word or one of
    /// the count features), useful for the interpretability discussion of
    /// Section 7.4.
    pub fn feature_name(&self, index: usize) -> String {
        if index < self.vocabulary.len() {
            format!("word:{}", self.vocabulary[index])
        } else {
            match index - self.vocabulary.len() {
                0 => "count:ascii_chars".to_owned(),
                1 => "count:punctuation".to_owned(),
                2 => "count:dots".to_owned(),
                3 => "count:whitespace".to_owned(),
                _ => format!("feature:{index}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_features_count_characters() {
        let f = QueryFeatures::of("www.google.com search");
        assert_eq!(f.dots, 2);
        assert_eq!(f.whitespace, 1);
        assert_eq!(f.punctuation, 2); // the two dots
        assert_eq!(f.ascii_chars, "www.google.com search".len());
        assert_eq!(f.to_vec().len(), 4);
    }

    #[test]
    fn tokenize_splits_on_non_alphanumeric_and_lowercases() {
        assert_eq!(tokenize("WWW.Google.com"), vec!["www", "google", "com"]);
        assert_eq!(tokenize("sharon stone"), vec!["sharon", "stone"]);
        assert!(tokenize("...").is_empty());
    }

    #[test]
    fn fit_keeps_most_common_words() {
        let queries = [
            "google maps",
            "google mail",
            "google",
            "yahoo mail",
            "weather",
        ];
        let tf = TextFeaturizer::fit(queries.iter().copied(), 3);
        assert_eq!(tf.vocab_size(), 3);
        assert_eq!(tf.vocabulary()[0], "google");
        assert_eq!(tf.vocabulary()[1], "mail");
        assert_eq!(tf.dim(), 7);
    }

    #[test]
    fn transform_counts_vocabulary_words_and_appends_counts() {
        let tf = TextFeaturizer::fit(["google google mail", "yahoo"].iter().copied(), 10);
        let f = tf.transform("google mail google.com");
        // "google" appears twice, "mail" once
        let google_idx = tf.vocabulary().iter().position(|w| w == "google").unwrap();
        let mail_idx = tf.vocabulary().iter().position(|w| w == "mail").unwrap();
        assert_eq!(f[google_idx], 2.0);
        assert_eq!(f[mail_idx], 1.0);
        // the last four entries are the character counts
        let dim = tf.dim();
        assert_eq!(f[dim - 2], 1.0); // one dot
        assert_eq!(f[dim - 1], 2.0); // two whitespace characters
    }

    #[test]
    fn out_of_vocabulary_words_are_ignored() {
        let tf = TextFeaturizer::fit(["alpha beta"].iter().copied(), 10);
        let f = tf.transform("gamma delta");
        let word_part: f64 = f.as_slice()[..tf.vocab_size()].iter().sum();
        assert_eq!(word_part, 0.0);
    }

    #[test]
    fn feature_names_cover_words_and_counts() {
        let tf = TextFeaturizer::fit(["hello world"].iter().copied(), 10);
        assert!(tf.feature_name(0).starts_with("word:"));
        assert_eq!(tf.feature_name(tf.vocab_size()), "count:ascii_chars");
        assert_eq!(tf.feature_name(tf.vocab_size() + 3), "count:whitespace");
    }

    #[test]
    fn transform_batch_is_elementwise_transform() {
        let tf = TextFeaturizer::fit(["a b", "a c"].iter().copied(), 5);
        let batch = tf.transform_batch(["a b", "c"].iter().copied());
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0], tf.transform("a b"));
    }

    #[test]
    fn empty_training_set_produces_count_only_features() {
        let tf = TextFeaturizer::fit(std::iter::empty(), 500);
        assert_eq!(tf.vocab_size(), 0);
        assert_eq!(tf.dim(), 4);
        let f = tf.transform("whatever query.");
        assert_eq!(f.dim(), 4);
        assert!(f[0] > 0.0);
    }
}
