//! The job layer: one schedulable unit of simulation work and its typed
//! lifecycle.
//!
//! A [`Job`] names one point of an experiment manifest the way the
//! durable store does — `(spec fingerprint, point index, RunOptions)` —
//! so the scheduler, the result store, and the serve daemon all agree on
//! identity by construction: [`Job::store_key`] *is*
//! [`ResultStore::point_key`] over the same triple. Jobs are derived from
//! manifests by the same `i % of == index` ownership rule sharded sweeps
//! use ([`crate::manifest::shard_points`]), so a daemon, a sharded CLI
//! sweep, and `--bin all` enumerate identical job lists for identical
//! inputs.
//!
//! A job moves through a typed lifecycle:
//!
//! ```text
//! Queued → Running → Done
//!                  | Failed(SimError)      typed simulation error
//!                  | Quarantined(message)  panic / verification failure
//! ```
//!
//! `Failed` carries the real [`SimError`] (wedge, fault, exceeded budget)
//! so downstream reporting keeps the class — and its distinct exit code —
//! instead of collapsing everything to a string. `Quarantined` is the
//! fallback for failures with no typed error behind them: a panicking
//! simulation point or a failed result verification, caught by the
//! runner's panic firewall. Either way the diagnosis rides along and the
//! rest of the sweep keeps running.

use xloops_sim::{error_doc, RunOptions, SimError};
use xloops_stats::JsonValue;

use crate::manifest::{shard_points, ExperimentSpec};
use crate::store::ResultStore;

/// One schedulable simulation point: the manifest fingerprint, the point
/// index within that manifest, and the options the run executes under.
/// The triple is exactly the durable store's key material, so "is this
/// job already done?" is one [`ResultStore::load`] away on any machine.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// [`ExperimentSpec::fingerprint`] of the owning manifest.
    pub fingerprint: String,
    /// Index into the manifest's point list.
    pub index: usize,
    /// The options the point runs under (part of the identity: a sampled
    /// run and a full run of the same point are different jobs).
    pub options: RunOptions,
}

impl Job {
    /// The jobs of shard `index` of `of` of a spec, in point order —
    /// the scheduler's unit of admission. `0/1` is the whole manifest.
    pub fn for_shard(
        spec: &ExperimentSpec,
        index: usize,
        of: usize,
        options: &RunOptions,
    ) -> Vec<Job> {
        let fingerprint = spec.fingerprint();
        shard_points(spec, index, of)
            .into_iter()
            .map(|i| Job { fingerprint: fingerprint.clone(), index: i, options: options.clone() })
            .collect()
    }

    /// The job's durable-store key ([`ResultStore::point_key`] over the
    /// same triple).
    pub fn store_key(&self) -> String {
        ResultStore::point_key(&self.fingerprint, self.index, &self.options)
    }
}

/// Where a job is in its lifecycle. See the module docs for the state
/// machine; the two terminal failure states differ in what is known about
/// the failure, not in how the sweep treats it (both are non-fatal).
#[derive(Clone, Debug, PartialEq)]
pub enum JobState {
    /// Admitted, not yet dispatched.
    Queued,
    /// Dispatched to a worker.
    Running,
    /// Finished; the result rides in [`crate::sched::JobOutcome::result`].
    Done,
    /// The simulation raised a typed [`SimError`] (wedge, fault, budget).
    Failed(SimError),
    /// The point panicked or failed verification; the diagnosis message.
    Quarantined(String),
}

impl JobState {
    /// The state's wire label (`queued` / `running` / `done` / `failed` /
    /// `quarantined`) — what the serve protocol and progress reporting
    /// print.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed(_) => "failed",
            JobState::Quarantined(_) => "quarantined",
        }
    }

    /// Whether the job reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }

    /// Whether the job finished successfully.
    pub fn is_done(&self) -> bool {
        matches!(self, JobState::Done)
    }

    /// The canonical error document for a failed state (`None` for the
    /// others): a `Failed` job renders its [`SimError`] — message and
    /// class exit code — through the same [`error_doc`] shape the CLI and
    /// `bench-summary` use; a `Quarantined` job reports its diagnosis
    /// under the generic exit code `1`.
    pub fn to_error_doc(&self) -> Option<JsonValue> {
        match self {
            JobState::Failed(e) => Some(e.to_json_value()),
            JobState::Quarantined(message) => Some(error_doc(message, 1)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::spec_by_name;

    #[test]
    fn jobs_follow_the_shard_ownership_rule() {
        let spec = spec_by_name("fig9").expect("fig9 spec exists");
        let options = RunOptions::default();
        let all = Job::for_shard(&spec, 0, 1, &options);
        assert_eq!(all.len(), spec.points.len());
        let even = Job::for_shard(&spec, 0, 2, &options);
        let odd = Job::for_shard(&spec, 1, 2, &options);
        assert_eq!(even.len() + odd.len(), all.len());
        assert!(even.iter().all(|j| j.index % 2 == 0));
        assert!(odd.iter().all(|j| j.index % 2 == 1));
        // Job identity is the store's identity.
        let fp = spec.fingerprint();
        for j in &all {
            assert_eq!(j.fingerprint, fp);
            assert_eq!(j.store_key(), ResultStore::point_key(&fp, j.index, &options));
        }
    }

    #[test]
    fn lifecycle_labels_and_error_docs() {
        let done = JobState::Done;
        assert_eq!(done.label(), "done");
        assert!(done.is_terminal() && done.is_done());
        assert!(done.to_error_doc().is_none());
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());

        let failed = JobState::Failed(SimError::CycleBudget { budget: 10, cycles: 11 });
        assert_eq!(failed.label(), "failed");
        let doc = failed.to_error_doc().expect("failed states carry an error doc");
        assert_eq!(doc.get("exit_code").map(JsonValue::as_f64), Some(Some(5.0)));
        assert!(doc.get("message").and_then(JsonValue::as_str).unwrap().contains("budget"));

        let quarantined = JobState::Quarantined("it panicked".into());
        let doc = quarantined.to_error_doc().expect("quarantined states carry an error doc");
        assert_eq!(doc.get("exit_code").map(JsonValue::as_f64), Some(Some(1.0)));
        assert!(!quarantined.is_done() && quarantined.is_terminal());
    }
}
