//! Concurrency hammer tests for the sharded view store.
//!
//! Many threads share one `StorageEngine` (cheap clone of shared state) and
//! mix appends with probes — on a view all threads fight over, and on
//! per-thread private views that should never contend. The `SimClock` is
//! not `Sync` by design, so each thread charges its own clock; the engine
//! itself must be safely shareable.

use std::sync::Arc;

use eva_common::{Column, DataType, Field, FrameId, Schema, SimClock, Value, ViewId};
use eva_storage::{StorageEngine, ViewKey, ViewKeyKind};

const N_THREADS: u64 = 8;
const KEYS_PER_THREAD: u64 = 200;

fn out_schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![Field::new("label", DataType::Str)]).unwrap())
}

/// A chunk of `n` one-column rows, all `label`.
fn rows(label: &str, n: usize) -> Vec<Column> {
    vec![Column::from_values(&vec![Value::from(label); n])]
}

#[test]
fn threads_hammering_one_view_stay_consistent() {
    let eng = StorageEngine::new();
    let shared = eng.create_view("shared", ViewKeyKind::Frame, out_schema());

    let mut handles = Vec::new();
    for t in 0..N_THREADS {
        let eng = eng.clone();
        handles.push(std::thread::spawn(move || {
            let clock = SimClock::new();
            let mut hits = 0usize;
            for i in 0..KEYS_PER_THREAD {
                // Interleaved key ranges: every thread appends its own keys
                // but probes the whole space, racing appends from peers.
                let own = ViewKey::frame(FrameId(t * KEYS_PER_THREAD + i));
                eng.view_append(shared, &[(own, 1)], &rows("car", 1), &clock)
                    .unwrap();
                let probe: Vec<ViewKey> = (0..N_THREADS)
                    .map(|p| ViewKey::frame(FrameId(p * KEYS_PER_THREAD + i)))
                    .collect();
                let got = eng.view_probe(shared, &probe, &clock).unwrap();
                // Our own key must be visible to ourselves immediately.
                assert!(got.lens[t as usize].is_some(), "own append must be visible");
                hits += got.lens.iter().flatten().count();
            }
            hits
        }));
    }
    let total_hits: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    // Every append eventually lands exactly once.
    assert_eq!(
        eng.view_n_keys(shared).unwrap(),
        N_THREADS * KEYS_PER_THREAD
    );
    assert_eq!(
        eng.view_n_rows(shared).unwrap(),
        N_THREADS * KEYS_PER_THREAD
    );
    // At minimum each thread saw its own appends; racing probes can only
    // add hits on top.
    assert!(total_hits >= (N_THREADS * KEYS_PER_THREAD) as usize);
}

#[test]
fn private_views_do_not_interfere() {
    let eng = StorageEngine::new();
    let mut handles = Vec::new();
    for t in 0..N_THREADS {
        let eng = eng.clone();
        handles.push(std::thread::spawn(move || {
            let clock = SimClock::new();
            let view = eng.create_view(format!("private-{t}"), ViewKeyKind::Frame, out_schema());
            for i in 0..KEYS_PER_THREAD {
                let k = ViewKey::frame(FrameId(i));
                eng.view_append(view, &[(k, 1)], &rows("bus", 1), &clock)
                    .unwrap();
            }
            let keys: Vec<ViewKey> = (0..KEYS_PER_THREAD)
                .map(|i| ViewKey::frame(FrameId(i)))
                .collect();
            let got = eng.view_probe(view, &keys, &clock).unwrap();
            assert!(got.lens.iter().all(Option::is_some));
            assert_eq!(got.columns, rows("bus", KEYS_PER_THREAD as usize));
            view
        }));
    }
    let views: Vec<ViewId> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for v in views {
        assert_eq!(eng.view_n_keys(v).unwrap(), KEYS_PER_THREAD);
    }
    assert_eq!(eng.view_defs().len(), N_THREADS as usize);
}

/// Probes racing appends and one `clear_views`: a probe gathers under the
/// view's lock, so whatever the interleaving it never panics and hands back
/// exactly as many rows as its hit lengths say — each key's rows being the
/// ones appended for that key. Barriers force the three phases to overlap:
/// everyone starts together, and the clear lands while writers and readers
/// are mid-loop.
#[test]
fn probes_racing_appends_and_a_clear_return_whole_chunks() {
    use std::sync::Barrier;
    const WRITERS: u64 = 3;
    const READERS: u64 = 4;
    let eng = StorageEngine::new();
    let view = eng.create_view("raced", ViewKeyKind::Frame, out_schema());
    let start = Arc::new(Barrier::new((WRITERS + READERS + 1) as usize));
    let mid = Arc::new(Barrier::new((WRITERS + READERS + 1) as usize));
    // Key `f` owns `f % 4` rows labelled with its frame id.
    let label = |f: u64| format!("f{f}");
    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let (eng, start, mid) = (eng.clone(), Arc::clone(&start), Arc::clone(&mid));
        handles.push(std::thread::spawn(move || {
            let clock = SimClock::new();
            start.wait();
            for round in 0..KEYS_PER_THREAD {
                if round == KEYS_PER_THREAD / 2 {
                    mid.wait();
                }
                // Overlapping key ranges: writers also race each other.
                let frames: Vec<u64> = (0..8).map(|i| (round * 5 + w * 3 + i) % 600).collect();
                let entries: Vec<(ViewKey, u32)> = frames
                    .iter()
                    .map(|&f| (ViewKey::frame(FrameId(f)), (f % 4) as u32))
                    .collect();
                let values: Vec<Value> = frames
                    .iter()
                    .flat_map(|&f| vec![Value::from(label(f).as_str()); (f % 4) as usize])
                    .collect();
                // After the clear the view is gone; appends then fail
                // cleanly, they never corrupt or panic.
                let _ = eng.view_append(view, &entries, &[Column::from_values(&values)], &clock);
            }
        }));
    }
    for r in 0..READERS {
        let (eng, start, mid) = (eng.clone(), Arc::clone(&start), Arc::clone(&mid));
        handles.push(std::thread::spawn(move || {
            let clock = SimClock::new();
            start.wait();
            for round in 0..KEYS_PER_THREAD {
                if round == KEYS_PER_THREAD / 2 {
                    mid.wait();
                }
                let frames: Vec<u64> = (0..64).map(|i| (round * 7 + r * 11 + i) % 600).collect();
                let keys: Vec<ViewKey> =
                    frames.iter().map(|&f| ViewKey::frame(FrameId(f))).collect();
                let Ok(hits) = eng.view_probe(view, &keys, &clock) else {
                    continue; // cleared
                };
                assert_eq!(hits.lens.len(), keys.len());
                assert_eq!(hits.columns.len(), 1);
                assert_eq!(
                    hits.columns[0].len(),
                    hits.n_rows(),
                    "chunk rows == sum of hit lengths"
                );
                let mut at = 0;
                for (&f, len) in frames.iter().zip(&hits.lens) {
                    let Some(len) = *len else { continue };
                    assert_eq!(u64::from(len), f % 4, "frame {f}");
                    for _ in 0..len {
                        assert_eq!(hits.columns[0].value_at(at), Value::from(label(f).as_str()));
                        at += 1;
                    }
                }
            }
        }));
    }
    start.wait();
    mid.wait();
    eng.clear_views();
    for h in handles {
        h.join().expect("no thread may panic");
    }
    assert!(eng.view_n_keys(view).is_err(), "the view was cleared");
}
