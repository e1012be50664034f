//! Online session context for interactive recommendation.
//!
//! Definitions 6 and 7 allow predictions from the whole current session
//! `S* = (Q'_1 … Q'_i)`; the paper's solution uses only `Q'_i` but notes
//! that seq2seq inputs extend naturally by concatenating the preceding
//! queries into one sequence (Section 2). [`SessionContext`] implements
//! that: it records the user's queries and exposes either the last
//! query or a windowed concatenation as model input. Only the queries
//! inside the window are kept, so a long-lived session costs constant
//! memory.

use crate::predict::PerKind;
use crate::recommender::Recommender;
use qrec_nn::Strategy;
use qrec_sql::ParseError;
use qrec_workload::QueryRecord;
use std::collections::VecDeque;

/// Separator token placed between concatenated queries. Out-of-vocabulary
/// by construction, so it encodes as `<UNK>` — a consistent boundary
/// marker for the model.
pub const SEP_TOKEN: &str = "<SEP>";

/// A live user session: the last `window` queries issued, oldest first,
/// and a count of every query issued.
#[derive(Debug, Clone)]
pub struct SessionContext {
    recent: VecDeque<QueryRecord>,
    pushed: usize,
    window: usize,
}

impl Default for SessionContext {
    /// The paper's configuration: a window of one query.
    fn default() -> Self {
        SessionContext::new(1)
    }
}

impl SessionContext {
    /// A context that feeds models the last `window` queries
    /// (`window = 1` reproduces the paper's configuration).
    pub fn new(window: usize) -> Self {
        let window = window.max(1);
        SessionContext {
            recent: VecDeque::with_capacity(window),
            pushed: 0,
            window,
        }
    }

    /// Record the next query the user ran.
    ///
    /// # Errors
    ///
    /// Returns the parse error if the statement is not valid SQL in the
    /// `qrec` dialect (the session is left unchanged).
    pub fn push_sql(&mut self, sql: &str) -> Result<(), ParseError> {
        self.push(QueryRecord::new(sql)?);
        Ok(())
    }

    /// Record an already-parsed query; the oldest query leaves the
    /// window once it is full.
    pub fn push(&mut self, record: QueryRecord) {
        if self.recent.len() == self.window {
            self.recent.pop_front();
        }
        self.recent.push_back(record);
        self.pushed += 1;
    }

    /// Number of queries recorded, including those that have left the
    /// window.
    pub fn len(&self) -> usize {
        self.pushed
    }

    /// True if the session has no queries yet.
    pub fn is_empty(&self) -> bool {
        self.pushed == 0
    }

    /// The most recent query, if any.
    pub fn last(&self) -> Option<&QueryRecord> {
        self.recent.back()
    }

    /// The model input tokens: the last `window` queries concatenated
    /// with [`SEP_TOKEN`] boundaries (just the last query when
    /// `window = 1`).
    pub fn input_tokens(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (i, q) in self.recent.iter().enumerate() {
            if i > 0 {
                out.push(SEP_TOKEN.to_string());
            }
            out.extend(q.tokens.iter().cloned());
        }
        out
    }

    /// Recommend up to `n` fragments per kind for the next query, using
    /// the windowed context. Returns `None` when the session is empty.
    #[must_use]
    pub fn recommend_fragments(
        &self,
        rec: &mut Recommender,
        n: usize,
        strategy: Strategy,
    ) -> Option<PerKind<Vec<String>>> {
        if self.is_empty() {
            return None;
        }
        let tokens = self.input_tokens();
        let ranked = rec.ranked_fragments_for_tokens(&tokens, strategy);
        Some(ranked.map(|_, r| r.iter().take(n).cloned().collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_window() {
        let mut ctx = SessionContext::new(2);
        assert!(ctx.is_empty());
        ctx.push_sql("SELECT a FROM t").unwrap();
        ctx.push_sql("SELECT b FROM t").unwrap();
        ctx.push_sql("SELECT c FROM t").unwrap();
        assert_eq!(ctx.len(), 3);
        assert_eq!(ctx.last().unwrap().sql, "SELECT c FROM t");
        let toks = ctx.input_tokens();
        // Window 2: queries b and c with one separator.
        assert_eq!(toks.iter().filter(|t| *t == SEP_TOKEN).count(), 1);
        assert!(toks.contains(&"b".to_string()));
        assert!(toks.contains(&"c".to_string()));
        assert!(!toks.contains(&"a".to_string()));
    }

    #[test]
    fn window_one_is_last_query_only() {
        let mut ctx = SessionContext::new(1);
        ctx.push_sql("SELECT a FROM t").unwrap();
        ctx.push_sql("SELECT b FROM u").unwrap();
        let toks = ctx.input_tokens();
        assert!(!toks.contains(&SEP_TOKEN.to_string()));
        assert_eq!(toks, ctx.last().unwrap().tokens);
    }

    #[test]
    fn invalid_sql_leaves_session_unchanged() {
        let mut ctx = SessionContext::new(1);
        ctx.push_sql("SELECT a FROM t").unwrap();
        assert!(ctx.push_sql("NOT SQL").is_err());
        assert_eq!(ctx.len(), 1);
    }

    /// The unbounded reference: concatenate the last `window` of every
    /// query ever pushed.
    fn unbounded_tokens(all: &[QueryRecord], window: usize) -> Vec<String> {
        let start = all.len().saturating_sub(window);
        let mut out = Vec::new();
        for (i, q) in all[start..].iter().enumerate() {
            if i > 0 {
                out.push(SEP_TOKEN.to_string());
            }
            out.extend(q.tokens.iter().cloned());
        }
        out
    }

    #[test]
    fn long_sessions_retain_only_the_window() {
        let queries: Vec<QueryRecord> = [
            "SELECT a FROM t",
            "SELECT b FROM u WHERE c = 1",
            "SELECT d, e FROM v",
            "SELECT COUNT(f) FROM w",
        ]
        .iter()
        .map(|sql| QueryRecord::new(sql).unwrap())
        .collect();
        let mut ctx = SessionContext::new(3);
        let mut all = Vec::new();
        for i in 0..10_000 {
            let q = queries[(i * 7 + i / 3) % queries.len()].clone();
            all.push(q.clone());
            ctx.push(q);
            if i % 997 == 0 {
                assert_eq!(ctx.input_tokens(), unbounded_tokens(&all, 3));
            }
        }
        assert_eq!(ctx.len(), 10_000);
        assert_eq!(ctx.recent.len(), 3);
        assert_eq!(ctx.input_tokens(), unbounded_tokens(&all, 3));
        assert_eq!(ctx.last(), all.last());
    }

    #[test]
    fn zero_window_clamps_to_one() {
        let ctx = SessionContext::new(0);
        assert_eq!(ctx.window, 1);
    }
}
