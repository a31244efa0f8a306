//! `TokenTable` against the map it replaced: random `insert` / `get` /
//! `get_mut` / `remove` / `contains` programs run on the table and on a
//! `HashMap<u64, V>` side by side, and every result and `len` must agree.
//!
//! The key generator targets the table's three special paths:
//!
//! * keys alias modulo the ring capacity (stragglers behind the window and
//!   `key ± capacity` neighbours of live keys), so aliasing inserts demote
//!   entries to the overflow map and lookups cross the ring/overflow
//!   boundary;
//! * a steady phase slides a bounded live window several ring capacities
//!   along the key line;
//! * a growth phase stops retiring old keys, so the live population
//!   outgrows the ring and every grow re-homes the overflow stragglers.

use jsk_core::token_table::TokenTable;
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

/// One step: `(opcode, distance back from the window head, alias shift,
/// value)`.
type Step = (u8, u64, u8, u32);

/// What a program reached, so the property also pins the generator's
/// coverage of the table's special paths.
#[derive(Debug, Default)]
struct Reached {
    /// Most entries ever parked in the overflow map.
    max_overflow: usize,
    /// Ring doublings that happened while the overflow was non-empty.
    grows_with_overflow: usize,
    /// How far the window head moved during the steady phase, in ring
    /// capacities of the initial size.
    steady_slide_caps: u64,
}

/// Runs `steps` on a fresh table and model, failing on the first
/// disagreement. The first half is the steady phase: after each fresh key
/// the oldest keys are retired down to `window` live entries. The second
/// half is the growth phase: nothing is retired automatically.
fn run(steps: &[Step], window: usize) -> Result<Reached, TestCaseError> {
    let mut table: TokenTable<u32> = TokenTable::new();
    let mut model: HashMap<u64, u32> = HashMap::new();
    let cap = table.capacity() as u64;
    // Keys inserted, oldest first (some may be gone already).
    let mut order: VecDeque<u64> = VecDeque::new();
    // The window head: the newest fresh key. Starts high enough that
    // stragglers up to four capacities back (and one more alias shift) stay
    // positive.
    let start = 5 * cap;
    let mut head = start;
    let mut reached = Reached::default();
    let half = steps.len() / 2;

    for (i, &(op, back, alias, val)) in steps.iter().enumerate() {
        let steady = i < half;
        // A key near the window, shifted by a multiple of the capacity so
        // it shares a ring slot with `head - back`.
        let near = head - back;
        let key = match alias % 4 {
            0 | 1 => near,
            2 => near + cap,
            _ => near - cap,
        };
        let (cap_before, overflow_before) = (table.capacity(), table.overflow_len());
        match op % 10 {
            // Fresh key at the head: the monotonic token stream.
            0..=3 => {
                head += 1 + back % 3;
                prop_assert_eq!(table.insert(head, val), model.insert(head, val));
                order.push_back(head);
                if steady {
                    while model.len() > window {
                        let old = order.pop_front().expect("live keys are queued");
                        prop_assert_eq!(table.remove(old), model.remove(&old), "retire {}", old);
                    }
                    reached.steady_slide_caps = (head - start) / cap;
                }
            }
            // Any key near the window: stragglers, aliases, re-inserts.
            4 => {
                prop_assert_eq!(
                    table.insert(key, val),
                    model.insert(key, val),
                    "insert {}",
                    key
                );
                order.push_back(key);
            }
            5 => prop_assert_eq!(table.get(key), model.get(&key), "get {}", key),
            6 => {
                let t = table.get_mut(key).map(|v| {
                    *v ^= val;
                    *v
                });
                let m = model.get_mut(&key).map(|v| {
                    *v ^= val;
                    *v
                });
                prop_assert_eq!(t, m, "get_mut {}", key);
            }
            7 => prop_assert_eq!(
                table.contains(key),
                model.contains_key(&key),
                "contains {}",
                key
            ),
            8 => prop_assert_eq!(table.remove(key), model.remove(&key), "remove {}", key),
            // A recently inserted key, live or not.
            _ => {
                if let Some(&k) = order.iter().rev().nth(back as usize % order.len().max(1)) {
                    prop_assert_eq!(table.remove(k), model.remove(&k), "remove recent {}", k);
                }
            }
        }
        prop_assert_eq!(table.len(), model.len(), "len after step {}", i);
        reached.max_overflow = reached.max_overflow.max(table.overflow_len());
        if table.capacity() > cap_before && overflow_before > 0 {
            reached.grows_with_overflow += 1;
        }
    }
    // Every surviving key still resolves to the model's value.
    for (&k, v) in &model {
        prop_assert_eq!(table.get(k), Some(v), "final get {}", k);
    }
    Ok(reached)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The table answers every operation exactly as a `HashMap` would.
    #[test]
    fn token_table_matches_hashmap(
        steps in proptest::collection::vec((0u8..10, 0u64..1024, 0u8..4, 0u32..1000), 1500..3000),
        window in 16usize..112,
    ) {
        let reached = run(&steps, window)?;
        // Generator coverage: each program aliased live keys, slid the
        // window past the ring capacity and grew the ring over overflow
        // entries.
        prop_assert!(reached.max_overflow > 0, "no aliasing demotion: {:?}", reached);
        prop_assert!(reached.steady_slide_caps >= 2, "window did not slide: {:?}", reached);
        prop_assert!(reached.grows_with_overflow > 0, "no grow over overflow: {:?}", reached);
    }
}
