//! The reference-verdict oracle. During set-up every distinct generated
//! (schedule, policy, seed) is served once through
//! `jsk_serve::submission_job` on a direct `ShardPool` — no wire — and its
//! `defended` and `detail` are kept. Every wire response is graded
//! against that reference: a mismatch, a `shed`, an `error` (deadline
//! included) or a missing frame is a failure.

use jsk_serve::{submission_job, Response, Submission};
use jsk_shard::serve::{ServeConfig, ShardPool, SiteOutcome};
use std::collections::HashMap;

/// What a verdict depends on: the run is a pure function of these (the
/// site label only names its metric series).
type Key = (String, u32, String, u64);

fn key(sub: &Submission) -> Key {
    (
        sub.schedule.name.clone(),
        sub.schedule.run_ms,
        sub.policy.clone(),
        sub.seed,
    )
}

/// Reference `(defended, detail)` per distinct submission.
#[derive(Debug, Clone, Default)]
pub struct Reference {
    expected: HashMap<Key, (Option<bool>, String)>,
}

impl Reference {
    /// Serves each distinct submission once on a direct pool of 2 shards
    /// and 2 workers.
    ///
    /// # Panics
    ///
    /// When the direct pool does not serve a site: the reference itself
    /// would be unusable.
    #[must_use]
    pub fn build<'a>(subs: impl Iterator<Item = &'a Submission>) -> Reference {
        let mut distinct: Vec<&Submission> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for sub in subs {
            if seen.insert(key(sub)) {
                distinct.push(sub);
            }
        }
        let pool = ShardPool::new(ServeConfig::new(2, 2));
        let report = pool.serve(distinct.iter().map(|s| submission_job(s)).collect());
        // Submission i homes on shard i % 2, in order.
        let expected = distinct
            .iter()
            .enumerate()
            .map(|(i, sub)| (sub, &report.shards[i % 2].sites[i / 2]))
            .map(|(sub, row)| match &row.outcome {
                SiteOutcome::Served {
                    defended, detail, ..
                } => (key(sub), (*defended, detail.clone())),
                other => panic!("reference run of {} not served: {other:?}", sub.site),
            })
            .collect();
        Reference { expected }
    }

    /// Distinct submissions in the reference.
    #[must_use]
    pub fn len(&self) -> usize {
        self.expected.len()
    }

    /// Whether `resp` is the correct verdict for `sub`.
    #[must_use]
    pub fn matches(&self, sub: &Submission, resp: &Response) -> bool {
        match resp {
            Response::Verdict {
                site,
                seed,
                policy,
                defended,
                detail,
                ..
            } => {
                *site == sub.site
                    && *seed == sub.seed
                    && *policy == sub.policy
                    && self.expected.get(&key(sub)) == Some(&(*defended, detail.clone()))
            }
            _ => false,
        }
    }

    /// Flips every reference verdict but `keep`'s: a run graded against
    /// it must fail.
    #[cfg(test)]
    pub fn corrupt_except(&mut self, keep: &Submission) {
        let keep = key(keep);
        for (k, v) in &mut self.expected {
            if *k != keep {
                v.0 = Some(v.0 != Some(true));
            }
        }
    }
}
