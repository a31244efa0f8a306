//! The policy engine: matches intercepted API calls against the installed
//! policy set and produces the mediator's decision.

use crate::policy::spec::{ApiSelector, CallFacts, PolicyAction, PolicySpec};
use crate::threads::ThreadManager;
use jsk_browser::mediator::ApiOutcome;
use jsk_browser::trace::ApiCall;

/// Extracts `(selector, facts)` from an intercepted call, consulting the
/// kernel thread manager for ambient facts (whether the calling thread is a
/// kernel-managed worker).
#[must_use]
pub fn classify(call: &ApiCall, threads: &ThreadManager) -> (ApiSelector, CallFacts) {
    let mut f = CallFacts {
        owner_alive: true,
        ..CallFacts::default()
    };
    let sel = match call {
        ApiCall::CreateWorker { sandboxed, .. } => {
            f.sandboxed = *sandboxed;
            ApiSelector::CreateWorker
        }
        ApiCall::TerminateWorker {
            during_dispatch,
            live_transfers,
            pending_fetches,
            ..
        } => {
            f.during_dispatch = *during_dispatch;
            f.has_live_transfers = *live_transfers > 0;
            f.has_pending_fetches = *pending_fetches > 0;
            ApiSelector::TerminateWorker
        }
        ApiCall::PostMessage {
            from,
            to,
            to_doc_freed,
            ..
        } => {
            f.from_worker = threads.by_thread(*from).is_some();
            f.to_doc_freed = *to_doc_freed;
            f.to_self = from == to;
            ApiSelector::PostMessage
        }
        ApiCall::SetOnMessage {
            worker,
            worker_closing,
            ..
        } => {
            f.assigns_worker_handler = worker.is_some();
            f.worker_closing = *worker_closing;
            ApiSelector::SetOnMessage
        }
        ApiCall::Fetch { thread, .. } => {
            f.from_worker = threads.by_thread(*thread).is_some();
            ApiSelector::Fetch
        }
        ApiCall::DeliverAbort {
            owner_alive, owner, ..
        } => {
            f.owner_alive = *owner_alive;
            f.from_worker = threads.by_thread(*owner).is_some();
            ApiSelector::DeliverAbort
        }
        ApiCall::XhrSend {
            from_worker,
            cross_origin,
            ..
        } => {
            f.from_worker = *from_worker;
            f.cross_origin = *cross_origin;
            ApiSelector::XhrSend
        }
        ApiCall::ImportScripts { cross_origin, .. } => {
            f.from_worker = true;
            f.cross_origin = *cross_origin;
            ApiSelector::ImportScripts
        }
        ApiCall::ErrorEvent {
            leaks_cross_origin, ..
        } => {
            f.leaks_cross_origin = *leaks_cross_origin;
            ApiSelector::ErrorEvent
        }
        ApiCall::IdbOpen {
            private_mode,
            persist,
            ..
        } => {
            f.private_mode = *private_mode;
            f.persist = *persist;
            ApiSelector::IdbOpen
        }
        ApiCall::Navigate { .. } => ApiSelector::Navigate,
        ApiCall::CloseDocument {
            pending_worker_messages,
            ..
        } => {
            f.has_pending_worker_messages = *pending_worker_messages > 0;
            ApiSelector::CloseDocument
        }
        ApiCall::BufferAccess { .. } => ApiSelector::BufferAccess,
        ApiCall::IlpCounterRead { .. } => ApiSelector::IlpCounterRead,
    };
    (sel, f)
}

/// Converts a policy action into the mediator decision.
#[must_use]
pub fn action_to_outcome(action: &PolicyAction) -> ApiOutcome {
    match action {
        PolicyAction::Allow => ApiOutcome::Allow,
        PolicyAction::Deny { reason } => ApiOutcome::Deny {
            reason: reason.clone(),
        },
        PolicyAction::DeferTermination => ApiOutcome::DeferTermination,
        PolicyAction::SanitizeError { replacement } => ApiOutcome::SanitizeError {
            replacement: replacement.clone(),
        },
        PolicyAction::OpaqueOrigin => ApiOutcome::OpaqueOrigin,
        PolicyAction::CancelDocBound => ApiOutcome::CancelDocBound,
        PolicyAction::DropQuietly => ApiOutcome::DropQuietly,
    }
}

/// One compiled rule: a `(mask, value)` word-compare standing in for the
/// 14-branch [`Condition::matches`](crate::policy::spec::Condition::matches)
/// chain. Matching `Allow` rules are no-ops in `decide` (the scan just
/// continues past them), so only non-`Allow` rules are compiled.
#[derive(Debug, Clone)]
struct CompiledRule {
    mask: u16,
    value: u16,
    action: PolicyAction,
    id: String,
}

/// The installed policy set, compiled at construction into per-selector
/// decision tables: `decide` indexes the call's selector and scans only
/// that selector's rules with one mask-and-compare each, instead of
/// walking every rule of every policy through the interpreted condition
/// chain. The source [`PolicySpec`]s are kept alongside for
/// [`policies`](PolicyEngine::policies) (linting, serialization) and for
/// the interpreted reference matcher.
#[derive(Debug, Default)]
pub struct PolicyEngine {
    policies: Vec<PolicySpec>,
    tables: [Vec<CompiledRule>; ApiSelector::COUNT],
}

impl PolicyEngine {
    /// Creates an engine with the given policies (matched in order;
    /// first matching non-`Allow` rule wins).
    #[must_use]
    pub fn new(policies: Vec<PolicySpec>) -> PolicyEngine {
        let mut engine = PolicyEngine {
            policies: Vec::new(),
            tables: std::array::from_fn(|_| Vec::new()),
        };
        for p in policies {
            engine.install(p);
        }
        engine
    }

    /// Adds a policy at the end of the match order, compiling its rules
    /// into the decision tables.
    pub fn install(&mut self, policy: PolicySpec) {
        for r in &policy.rules {
            if matches!(r.action, PolicyAction::Allow) {
                continue;
            }
            let (mask, value) = r.when.compile();
            self.tables[r.on.index()].push(CompiledRule {
                mask,
                value,
                action: r.action.clone(),
                id: r.id.clone(),
            });
        }
        self.policies.push(policy);
    }

    /// The installed policies.
    #[must_use]
    pub fn policies(&self) -> &[PolicySpec] {
        &self.policies
    }

    /// Decides the outcome for an intercepted call. Returns the matching
    /// rule's id alongside, for tracing.
    #[must_use]
    pub fn decide(&self, call: &ApiCall, threads: &ThreadManager) -> (ApiOutcome, Option<&str>) {
        let (sel, facts) = classify(call, threads);
        self.decide_compiled(sel, &facts)
    }

    /// The compiled fast path: scan the selector's table, first word-compare
    /// hit wins. Public so property tests can pit it directly against
    /// [`decide_interpreted`](PolicyEngine::decide_interpreted) on arbitrary
    /// facts.
    #[must_use]
    pub fn decide_compiled(
        &self,
        sel: ApiSelector,
        facts: &CallFacts,
    ) -> (ApiOutcome, Option<&str>) {
        let bits = facts.bits();
        for r in &self.tables[sel.index()] {
            if bits & r.mask == r.value {
                return (action_to_outcome(&r.action), Some(&r.id));
            }
        }
        (ApiOutcome::Allow, None)
    }

    /// The interpreted reference path: a linear walk of every rule through
    /// [`Condition::matches`](crate::policy::spec::Condition::matches).
    /// Kept as the semantics the compiled tables are checked against by
    /// the property tests (`crates/core/tests/policy_compile.rs`).
    #[must_use]
    pub fn decide_interpreted(
        &self,
        sel: ApiSelector,
        facts: &CallFacts,
    ) -> (ApiOutcome, Option<&str>) {
        for p in &self.policies {
            for r in &p.rules {
                if r.on == sel && r.when.matches(facts) {
                    match &r.action {
                        PolicyAction::Allow => continue,
                        other => return (action_to_outcome(other), Some(&r.id)),
                    }
                }
            }
        }
        (ApiOutcome::Allow, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::cve;
    use jsk_browser::ids::{RequestId, ThreadId, WorkerId};

    fn engine() -> PolicyEngine {
        PolicyEngine::new(cve::all_cve_policies())
    }

    /// `decide` classifies on ids and flags only — string payloads are
    /// opaque symbols to it — so tests mint them from a scratch table.
    fn sym(s: &str) -> jsk_browser::trace::Sym {
        jsk_browser::trace::Interner::new().intern(s)
    }

    #[test]
    fn abort_to_dead_owner_is_denied() {
        let e = engine();
        let call = ApiCall::DeliverAbort {
            req: RequestId::new(1),
            owner: ThreadId::new(2),
            owner_alive: false,
        };
        let (outcome, rule) = e.decide(&call, &ThreadManager::new());
        assert!(matches!(outcome, ApiOutcome::Deny { .. }), "{outcome:?}");
        assert!(rule.unwrap().contains("2018-5092"));
    }

    #[test]
    fn abort_to_live_owner_is_allowed() {
        let e = engine();
        let call = ApiCall::DeliverAbort {
            req: RequestId::new(1),
            owner: ThreadId::new(2),
            owner_alive: true,
        };
        let (outcome, _) = e.decide(&call, &ThreadManager::new());
        assert_eq!(outcome, ApiOutcome::Allow);
    }

    #[test]
    fn cross_origin_worker_xhr_is_denied_but_same_origin_allowed() {
        let e = engine();
        let cross = ApiCall::XhrSend {
            thread: ThreadId::new(1),
            from_worker: true,
            url: sym("https://victim.example/x"),
            cross_origin: true,
        };
        let (outcome, rule) = e.decide(&cross, &ThreadManager::new());
        assert!(matches!(outcome, ApiOutcome::Deny { .. }));
        assert!(rule.unwrap().contains("1714"));

        let same = ApiCall::XhrSend {
            thread: ThreadId::new(1),
            from_worker: true,
            url: sym("https://attacker.example/x"),
            cross_origin: false,
        };
        assert_eq!(e.decide(&same, &ThreadManager::new()).0, ApiOutcome::Allow);
    }

    #[test]
    fn termination_with_obligations_is_deferred() {
        let e = engine();
        let call = ApiCall::TerminateWorker {
            worker: WorkerId::new(0),
            reason: jsk_browser::trace::TerminationReason::Explicit,
            during_dispatch: false,
            live_transfers: 1,
            pending_fetches: 0,
        };
        assert_eq!(
            e.decide(&call, &ThreadManager::new()).0,
            ApiOutcome::DeferTermination
        );
        let clean = ApiCall::TerminateWorker {
            worker: WorkerId::new(0),
            reason: jsk_browser::trace::TerminationReason::Explicit,
            during_dispatch: false,
            live_transfers: 0,
            pending_fetches: 0,
        };
        assert_eq!(e.decide(&clean, &ThreadManager::new()).0, ApiOutcome::Allow);
    }

    #[test]
    fn leaking_error_is_sanitized() {
        let e = engine();
        let call = ApiCall::ErrorEvent {
            thread: ThreadId::new(0),
            message: sym("failed to load https://victim.example/w.js <secret>"),
            leaks_cross_origin: true,
        };
        let (outcome, _) = e.decide(&call, &ThreadManager::new());
        match outcome {
            ApiOutcome::SanitizeError { replacement } => {
                assert!(!replacement.contains("victim"));
            }
            other => panic!("expected sanitize, got {other:?}"),
        }
    }

    #[test]
    fn sandboxed_worker_creation_gets_opaque_origin() {
        let e = engine();
        let call = ApiCall::CreateWorker {
            parent: ThreadId::new(0),
            worker: WorkerId::new(0),
            src: sym("w.js"),
            sandboxed: true,
        };
        assert_eq!(
            e.decide(&call, &ThreadManager::new()).0,
            ApiOutcome::OpaqueOrigin
        );
    }

    #[test]
    fn empty_engine_allows_everything() {
        let e = PolicyEngine::default();
        let call = ApiCall::Navigate {
            thread: ThreadId::new(0),
        };
        assert_eq!(e.decide(&call, &ThreadManager::new()).0, ApiOutcome::Allow);
    }
}
