//! Property tests pitting the compiled policy decision tables against the
//! interpreted `Condition::matches` reference on arbitrary fact/policy
//! pairs: the two paths head-to-head over a much wider input space than
//! the shipped policies cover.

use jsk_core::policy::spec::{
    ApiSelector, CallFacts, Condition, PolicyAction, PolicyRule, PolicySpec,
};
use jsk_core::policy::PolicyEngine;
use proptest::prelude::*;

const SELECTORS: [ApiSelector; ApiSelector::COUNT] = [
    ApiSelector::CreateWorker,
    ApiSelector::TerminateWorker,
    ApiSelector::PostMessage,
    ApiSelector::SetOnMessage,
    ApiSelector::Fetch,
    ApiSelector::DeliverAbort,
    ApiSelector::XhrSend,
    ApiSelector::ImportScripts,
    ApiSelector::ErrorEvent,
    ApiSelector::IdbOpen,
    ApiSelector::Navigate,
    ApiSelector::CloseDocument,
    ApiSelector::BufferAccess,
    ApiSelector::IlpCounterRead,
];

/// Decodes 15 bits into concrete facts. The field order here is a test
/// generator, independent of the engine's internal bit assignment.
fn facts_from(bits: u16) -> CallFacts {
    CallFacts {
        from_worker: bits & 1 != 0,
        cross_origin: bits & 2 != 0,
        sandboxed: bits & 4 != 0,
        worker_closing: bits & 8 != 0,
        assigns_worker_handler: bits & 16 != 0,
        during_dispatch: bits & 32 != 0,
        has_live_transfers: bits & 64 != 0,
        has_pending_fetches: bits & 128 != 0,
        owner_alive: bits & 256 != 0,
        to_doc_freed: bits & 512 != 0,
        private_mode: bits & 1024 != 0,
        persist: bits & 2048 != 0,
        leaks_cross_origin: bits & 4096 != 0,
        has_pending_worker_messages: bits & 8192 != 0,
        to_self: bits & 16384 != 0,
    }
}

/// Decodes a (present, want) bit pair per field into a condition.
fn cond_from(present: u16, want: u16) -> Condition {
    fn f(present: u16, want: u16, bit: u16) -> Option<bool> {
        (present & bit != 0).then_some(want & bit != 0)
    }
    Condition {
        from_worker: f(present, want, 1),
        cross_origin: f(present, want, 2),
        sandboxed: f(present, want, 4),
        worker_closing: f(present, want, 8),
        assigns_worker_handler: f(present, want, 16),
        during_dispatch: f(present, want, 32),
        has_live_transfers: f(present, want, 64),
        has_pending_fetches: f(present, want, 128),
        owner_alive: f(present, want, 256),
        to_doc_freed: f(present, want, 512),
        private_mode: f(present, want, 1024),
        persist: f(present, want, 2048),
        leaks_cross_origin: f(present, want, 4096),
        has_pending_worker_messages: f(present, want, 8192),
        to_self: f(present, want, 16384),
    }
}

fn action_from(code: u8, rule: usize) -> PolicyAction {
    match code % 7 {
        0 => PolicyAction::Allow,
        1 => PolicyAction::Deny {
            reason: format!("deny #{rule}"),
        },
        2 => PolicyAction::DeferTermination,
        3 => PolicyAction::SanitizeError {
            replacement: format!("sanitized #{rule}"),
        },
        4 => PolicyAction::OpaqueOrigin,
        5 => PolicyAction::CancelDocBound,
        _ => PolicyAction::DropQuietly,
    }
}

/// Builds a policy set from raw rule tuples, split across two specs so the
/// cross-policy rule order is exercised too.
fn policies_from(rules: &[(u8, u16, u16, u8)]) -> Vec<PolicySpec> {
    let mut specs: Vec<PolicySpec> = (0..2)
        .map(|i| PolicySpec {
            name: format!("policy_prop_{i}"),
            description: "generated".into(),
            scheduling: None,
            rules: Vec::new(),
        })
        .collect();
    for (i, &(sel, present, want, action)) in rules.iter().enumerate() {
        specs[i % 2].rules.push(PolicyRule {
            id: format!("rule-{i}"),
            on: SELECTORS[sel as usize % SELECTORS.len()],
            when: cond_from(present, want),
            action: action_from(action, i),
        });
    }
    specs
}

proptest! {
    /// Compiled decision tables and the interpreted matcher agree on the
    /// full (outcome, rule-id) decision for arbitrary policies and facts.
    #[test]
    fn compiled_agrees_with_interpreted(
        rules in proptest::collection::vec(
            (0u8..14, 0u16..32768, 0u16..32768, 0u8..255),
            0..24,
        ),
        fact_bits in proptest::collection::vec(0u16..32768, 1..32),
    ) {
        let engine = PolicyEngine::new(policies_from(&rules));
        for &bits in &fact_bits {
            let facts = facts_from(bits);
            for sel in SELECTORS {
                prop_assert_eq!(
                    engine.decide_compiled(sel, &facts),
                    engine.decide_interpreted(sel, &facts),
                    "selector {:?}, facts {:#016b}", sel, bits
                );
            }
        }
    }

    /// A condition's compiled (mask, value) pair reproduces
    /// `Condition::matches` exactly on arbitrary fact words.
    #[test]
    fn compile_matches_interpreter(
        present in 0u16..32768,
        want in 0u16..32768,
        bits in 0u16..32768,
    ) {
        let cond = cond_from(present, want);
        let facts = facts_from(bits);
        let (mask, value) = cond.compile();
        prop_assert_eq!(facts.bits() & mask == value, cond.matches(&facts));
    }
}

/// `install` after construction keeps cross-policy rule order: an earlier
/// policy's rule still wins over a later-installed match.
#[test]
fn install_preserves_match_order() {
    let mk = |name: &str, id: &str, action: PolicyAction| PolicySpec {
        name: name.into(),
        description: String::new(),
        scheduling: None,
        rules: vec![PolicyRule {
            id: id.into(),
            on: ApiSelector::Navigate,
            when: Condition::default(),
            action,
        }],
    };
    let mut engine = PolicyEngine::new(vec![mk(
        "first",
        "first-deny",
        PolicyAction::Deny {
            reason: "first".into(),
        },
    )]);
    engine.install(mk("second", "second-drop", PolicyAction::DropQuietly));
    let facts = CallFacts::default();
    let (_, rule) = engine.decide_compiled(ApiSelector::Navigate, &facts);
    assert_eq!(rule, Some("first-deny"));
    assert_eq!(
        engine.decide_compiled(ApiSelector::Navigate, &facts),
        engine.decide_interpreted(ApiSelector::Navigate, &facts)
    );
}
