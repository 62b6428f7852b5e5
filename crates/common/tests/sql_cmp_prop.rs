//! Property tests pinning the row path's [`Value::sql_cmp`] and the
//! columnar path's [`CellRef::sql_cmp`] to each other.
//!
//! The columnar executor re-implements SQL comparison on borrowed cells so
//! filters can run without materializing values; any drift between the two
//! (NULL ordering, Int/Float cross-type numerics, NaN handling, BBox
//! quantization ties) would make the columnar operators disagree with the
//! scalar evaluator that the property suites use as their reference. These properties make
//! the agreement a law — including through [`ColumnBuilder`]'s
//! representation choices (typed columns, `Mixed` demotion on heterogeneous
//! input, the all-null `Int` carcass).

use std::cmp::Ordering;

use eva_common::rng::SmallRng;
use eva_common::testutil::for_cases;
use eva_common::{BBox, CellRef, Column, Value};

const CASES: u32 = 512;

/// Small integers, so Int/Float pairs also compare equal across types.
fn small(rng: &mut SmallRng) -> i64 {
    rng.gen_range(-3..3)
}

fn arb_float(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0..14) {
        0..=6 => rng.gen_range(-1.0e12..1.0e12),
        7 => small(rng) as f64,
        8 => f64::NAN,
        9 => f64::INFINITY,
        10 => f64::NEG_INFINITY,
        11 => -0.0,
        12 => 0.0,
        _ => rng.gen_range(-3.0..3.0),
    }
}

/// A coordinate in `[0, 1]`, endpoints included.
fn unit(rng: &mut SmallRng) -> f32 {
    match rng.gen_range(0..10) {
        0 => 0.0,
        1 => 1.0,
        _ => rng.gen_f32(),
    }
}

fn arb_string(rng: &mut SmallRng) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _-";
    let len = rng.gen_range(0..9);
    (0..len).map(|_| *rng.pick(ALPHABET) as char).collect()
}

fn arb_value(rng: &mut SmallRng) -> Value {
    // Weights 1 : 2 : 4 : 4 : 3 : 2, as NULL : Bool : Int : Float : Str : Box.
    match rng.gen_range(0..16) {
        0 => Value::Null,
        1..=2 => Value::Bool(rng.gen_bool(0.5)),
        3..=4 => Value::Int(rng.next_u64() as i64),
        5..=6 => Value::Int(small(rng)),
        7..=10 => Value::Float(arb_float(rng)),
        11..=13 => Value::Str(arb_string(rng)),
        _ => Value::Box(BBox::new(unit(rng), unit(rng), unit(rng), unit(rng))),
    }
}

/// `sql_cmp` through a column built from `vals`, comparing slots `i`, `j`.
fn column_cmp(vals: &[Value], i: usize, j: usize) -> Option<Ordering> {
    let col = Column::from_values(vals.iter());
    col.cell(i).sql_cmp(col.cell(j))
}

/// Round-trip equality: bit-exact for floats (`strict_eq` goes through
/// `sql_cmp` and so calls NaN != NaN), `strict_eq` otherwise.
fn roundtrip_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a.strict_eq(b),
    }
}

/// The core law: the borrowed-cell comparison equals the owned-value
/// comparison, for every pair of values.
#[test]
fn cellref_matches_value() {
    for_cases(11, CASES, |rng| {
        let (a, b) = (arb_value(rng), arb_value(rng));
        assert_eq!(
            CellRef::from_value(&a).sql_cmp(CellRef::from_value(&b)),
            a.sql_cmp(&b),
            "a={a:?} b={b:?}"
        );
    });
}

/// The law survives a round trip through column storage: building a
/// two-slot column (which may pick a typed representation, demote to
/// `Mixed` on heterogeneous input, or leave an all-null carcass) must
/// not change any comparison outcome.
#[test]
fn column_cells_match_values() {
    for_cases(12, CASES, |rng| {
        let (a, b) = (arb_value(rng), arb_value(rng));
        let vals = [a.clone(), b.clone()];
        assert_eq!(column_cmp(&vals, 0, 1), a.sql_cmp(&b), "a={a:?} b={b:?}");
        assert_eq!(column_cmp(&vals, 1, 0), b.sql_cmp(&a), "a={a:?} b={b:?}");
        assert_eq!(column_cmp(&vals, 0, 0), a.sql_cmp(&a), "a={a:?}");
    });
}

/// Storing and re-materializing a value preserves it — bit-exactly for
/// floats (NaN payloads and the sign of -0.0 must survive storage).
#[test]
fn value_at_round_trips() {
    for_cases(13, CASES, |rng| {
        let a = arb_value(rng);
        let col = Column::from_values([&a]);
        assert!(
            roundtrip_eq(&col.value_at(0), &a),
            "a={a:?} got={:?}",
            col.value_at(0)
        );
    });
}

/// Antisymmetry: swapping operands reverses the ordering (or stays
/// None/Equal). Holds for both implementations by the matching law, so
/// check the value side only.
#[test]
fn sql_cmp_is_antisymmetric() {
    for_cases(14, CASES, |rng| {
        let (a, b) = (arb_value(rng), arb_value(rng));
        assert_eq!(
            a.sql_cmp(&b).map(Ordering::reverse),
            b.sql_cmp(&a),
            "a={a:?} b={b:?}"
        );
    });
}

/// Deterministic pins for the semantics the properties rely on.
#[test]
fn null_never_compares() {
    for v in [
        Value::Null,
        Value::Int(0),
        Value::Str("x".into()),
        Value::Bool(false),
    ] {
        assert_eq!(Value::Null.sql_cmp(&v), None);
        assert_eq!(v.sql_cmp(&Value::Null), None);
        assert_eq!(CellRef::Null.sql_cmp(CellRef::from_value(&v)), None);
    }
    // But strict_eq folds NULL == NULL to true for hashing contexts.
    assert!(Value::Null.strict_eq(&Value::Null));
}

#[test]
fn int_float_cross_type_numerics() {
    assert_eq!(
        Value::Int(1).sql_cmp(&Value::Float(1.0)),
        Some(Ordering::Equal)
    );
    assert_eq!(
        Value::Int(2).sql_cmp(&Value::Float(1.5)),
        Some(Ordering::Greater)
    );
    assert_eq!(
        CellRef::Int(1).sql_cmp(CellRef::Float(1.0)),
        Some(Ordering::Equal)
    );
    // NaN compares as incomparable in both paths.
    assert_eq!(
        Value::Float(f64::NAN).sql_cmp(&Value::Float(f64::NAN)),
        None
    );
    assert_eq!(
        CellRef::Float(f64::NAN).sql_cmp(CellRef::Float(f64::NAN)),
        None
    );
}

#[test]
fn bbox_quantization_ties_compare_equal() {
    // Unequal boxes whose 1/10000-quantized keys coincide must compare
    // Equal (the fuzzy-probe key is the ordering's source of truth).
    let a = BBox::new(0.12341, 0.2, 0.5, 0.6);
    let b = BBox::new(0.12344, 0.2, 0.5, 0.6);
    assert_ne!(a, b);
    assert_eq!(a.key(), b.key());
    assert_eq!(Value::Box(a).sql_cmp(&Value::Box(b)), Some(Ordering::Equal));
    assert_eq!(
        CellRef::BBox(a).sql_cmp(CellRef::BBox(b)),
        Some(Ordering::Equal)
    );
}

#[test]
fn mixed_column_preserves_exact_values() {
    // Heterogeneous input demotes the column to Mixed; every value must
    // survive bit-exactly, including the float that a naive Int column
    // would have truncated.
    let vals = [
        Value::Int(7),
        Value::Float(2.5),
        Value::Str("car".into()),
        Value::Null,
    ];
    let col = Column::from_values(vals.iter());
    assert_eq!(col.len(), 4);
    for (i, v) in vals.iter().enumerate() {
        assert!(
            col.value_at(i).strict_eq(v),
            "slot {i}: {:?}",
            col.value_at(i)
        );
    }
}
