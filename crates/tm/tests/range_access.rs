//! Range accessors against the per-word loop they replace.
//!
//! `read_bytes`/`write_bytes`/`read_words`/`write_words` make one engine
//! call per byte range. On every engine they must produce exactly what a
//! loop of `read_word`/`write_word` calls produces: the same bytes read,
//! the same memory after commit (padding included), and the same
//! reaction to a concurrent commit — abort or extend, never a torn view.

use std::cell::Cell;

use testkit::rng::{Rng, SmallRng};
use tm::{Abort, Algorithm, ContentionManager, SerialLockMode, TBytes, TmRuntime, Transaction};

const ALGOS: [Algorithm; 3] = [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec];

/// Long enough for 2048-byte windows at any offset below 8, and not a
/// multiple of 8, so the last backing word carries padding.
const LEN: usize = 2059;

fn runtime(algo: Algorithm) -> TmRuntime {
    TmRuntime::builder()
        .algorithm(algo)
        .contention_manager(ContentionManager::None)
        .serial_lock(SerialLockMode::None)
        .build()
}

/// The reference: one `read_word` per touched word.
fn loop_read_bytes<'e, T: Transaction<'e>>(
    tx: &mut T,
    b: &'e TBytes,
    offset: usize,
    dst: &mut [u8],
) -> Result<(), Abort> {
    let mut i = 0;
    while i < dst.len() {
        let (wi, first) = ((offset + i) / 8, (offset + i) % 8);
        let n = (8 - first).min(dst.len() - i);
        let bytes = tx.read_word(b.word(wi))?.to_le_bytes();
        dst[i..i + n].copy_from_slice(&bytes[first..first + n]);
        i += n;
    }
    Ok(())
}

/// The reference: one `write_word` per touched word, partial words
/// read-merged in place.
fn loop_write_bytes<'e, T: Transaction<'e>>(
    tx: &mut T,
    b: &'e TBytes,
    offset: usize,
    src: &[u8],
) -> Result<(), Abort> {
    let mut i = 0;
    while i < src.len() {
        let (wi, first) = ((offset + i) / 8, (offset + i) % 8);
        let n = (8 - first).min(src.len() - i);
        let mut bytes = if n == 8 {
            [0u8; 8]
        } else {
            tx.read_word(b.word(wi))?.to_le_bytes()
        };
        bytes[first..first + n].copy_from_slice(&src[i..i + n]);
        tx.write_word(b.word(wi), u64::from_le_bytes(bytes))?;
        i += n;
    }
    Ok(())
}

/// One random operation, applied to both buffers.
#[derive(Clone, Debug)]
enum Op {
    ReadBytes(usize, usize),
    WriteBytes(usize, Vec<u8>),
    ReadWords(usize, usize),
    WriteWords(usize, Vec<u64>),
}

fn random_op(rng: &mut SmallRng) -> Op {
    let len = rng.gen_range(0usize..2049);
    let offset = rng.gen_range(0..LEN - len + 1);
    let words = LEN.div_ceil(8);
    let wn = rng.gen_range(0usize..words + 1);
    let wi = rng.gen_range(0..words - wn + 1);
    match rng.gen_range(0u32..4) {
        0 => Op::ReadBytes(offset, len),
        1 => {
            let mut v = vec![0u8; len];
            rng.fill_bytes(&mut v);
            Op::WriteBytes(offset, v)
        }
        2 => Op::ReadWords(wi, wn),
        _ => {
            let mut v: Vec<u64> = (0..wn).map(|_| rng.next_u64()).collect();
            if wi + wn == words {
                // The caller owns the padding and must write it as zero.
                if let Some(last) = v.last_mut() {
                    *last &= u64::MAX >> (8 * (8 * words - LEN));
                }
            }
            Op::WriteWords(wi, v)
        }
    }
}

/// Applies `ops` to `a` through the range accessors and to `b` through the
/// per-word loop in one transaction; every read must agree.
fn apply_both<'e, T: Transaction<'e>>(
    tx: &mut T,
    a: &'e TBytes,
    b: &'e TBytes,
    ops: &[Op],
) -> Result<(), Abort> {
    for op in ops {
        match op {
            Op::ReadBytes(off, len) => {
                let (mut x, mut y) = (vec![0u8; *len], vec![0u8; *len]);
                tx.read_bytes(a, *off, &mut x)?;
                loop_read_bytes(tx, b, *off, &mut y)?;
                assert_eq!(x, y, "read_bytes({off}, {len}) diverged from the word loop");
            }
            Op::WriteBytes(off, v) => {
                tx.write_bytes(a, *off, v)?;
                loop_write_bytes(tx, b, *off, v)?;
            }
            Op::ReadWords(wi, n) => {
                let (mut x, mut y) = (vec![0u64; *n], vec![0u64; *n]);
                tx.read_words(a, *wi, &mut x)?;
                for (k, d) in y.iter_mut().enumerate() {
                    *d = tx.read_word(b.word(wi + k))?;
                }
                assert_eq!(x, y, "read_words({wi}, {n}) diverged from the word loop");
            }
            Op::WriteWords(wi, v) => {
                tx.write_words(a, *wi, v)?;
                for (k, &w) in v.iter().enumerate() {
                    tx.write_word(b.word(wi + k), w)?;
                }
            }
        }
    }
    Ok(())
}

fn assert_same_memory(a: &TBytes, b: &TBytes, what: &str) {
    assert_eq!(
        a.to_vec_direct(),
        b.to_vec_direct(),
        "{what}: bytes diverged"
    );
    for wi in 0..a.word_count() {
        assert_eq!(
            a.load_word_direct(wi),
            b.load_word_direct(wi),
            "{what}: backing word {wi} diverged (padding included)"
        );
    }
}

/// Random ranges of 0..=2048 bytes at random offsets, reads after writes
/// inside one transaction, both transaction kinds: range and loop agree
/// byte for byte on every engine.
#[test]
fn ranges_match_the_per_word_loop() {
    for algo in ALGOS {
        let rt = runtime(algo);
        let mut rng = SmallRng::seed_from_u64(0x5A17 + algo as u64);
        let init: Vec<u8> = (0..LEN).map(|i| (i * 7 + 3) as u8).collect();
        let (a, b) = (TBytes::from_slice(&init), TBytes::from_slice(&init));
        for t in 0..300 {
            let ops: Vec<Op> = (0..rng.gen_range(1usize..7))
                .map(|_| random_op(&mut rng))
                .collect();
            if t % 3 == 0 {
                // Starts on the read-only fast lane; a write promotes it.
                rt.atomic_ro(|tx| apply_both(tx, &a, &b, &ops));
            } else {
                rt.atomic(|tx| apply_both(tx, &a, &b, &ops));
            }
            assert_same_memory(&a, &b, &format!("{algo} txn {t}"));
        }
    }
}

/// The edge shapes spelled out: empty ranges, single bytes, windows inside
/// one word, exact words, and windows ending in the padded last word.
#[test]
fn edge_windows_match_the_per_word_loop() {
    let shapes = [
        (0, 0),
        (LEN, 0),
        (5, 1),
        (1, 6),
        (8, 8),
        (3, 13),
        (0, 16),
        (LEN - 3, 3),
        (LEN - 11, 11),
        (0, LEN),
    ];
    for algo in ALGOS {
        let rt = runtime(algo);
        let init: Vec<u8> = (0..LEN).map(|i| (i * 13 + 1) as u8).collect();
        let (a, b) = (TBytes::from_slice(&init), TBytes::from_slice(&init));
        for (k, &(off, len)) in shapes.iter().enumerate() {
            let v: Vec<u8> = (0..len).map(|i| (i + k) as u8 ^ 0xA5).collect();
            let ops = [
                Op::WriteBytes(off, v),
                Op::ReadBytes(
                    off.saturating_sub(9),
                    (len + 18).min(LEN - off.saturating_sub(9)),
                ),
            ];
            rt.atomic(|tx| apply_both(tx, &a, &b, &ops));
            assert_same_memory(&a, &b, &format!("{algo} window {off}+{len}"));
        }
    }
}

fn read_window<'e, T: Transaction<'e>>(
    tx: &mut T,
    b: &'e TBytes,
    ranged: bool,
    off: usize,
    dst: &mut [u8],
) -> Result<(), Abort> {
    if ranged {
        tx.read_bytes(b, off, dst)
    } else {
        loop_read_bytes(tx, b, off, dst)
    }
}

/// Attempts taken by a transaction that reads `off..off+len` (by range or
/// by word loop), lets another thread commit a flipped word `j`, then
/// reads the window again. Both reads of the committed attempt must agree.
fn attempts_with_interference(
    algo: Algorithm,
    ranged: bool,
    off: usize,
    len: usize,
    j: usize,
) -> u32 {
    let rt = runtime(algo);
    let init: Vec<u8> = (0..LEN).map(|i| (i * 31 + 7) as u8).collect();
    let b = TBytes::from_slice(&init);
    let attempts = Cell::new(0u32);
    let (first, second) = rt.atomic(|tx| {
        attempts.set(attempts.get() + 1);
        let mut first = vec![0u8; len];
        read_window(tx, &b, ranged, off, &mut first)?;
        if attempts.get() == 1 {
            std::thread::scope(|s| {
                s.spawn(|| {
                    rt.atomic(|w| {
                        let v = w.read_word(b.word(j))?;
                        w.write_word(b.word(j), !v)
                    })
                })
                .join()
                .expect("interfering writer panicked");
            });
        }
        let mut second = vec![0u8; len];
        read_window(tx, &b, ranged, off, &mut second)?;
        Ok((first, second))
    });
    assert_eq!(
        first, second,
        "{algo}: a committed attempt saw the window change"
    );
    attempts.get()
}

/// A concurrent commit to any one word of a range makes the range reader
/// abort exactly as the per-word reader does; a commit just outside the
/// range gets the same treatment from both.
#[test]
fn concurrent_commit_to_one_word_aborts_like_the_word_loop() {
    let mut rng = SmallRng::seed_from_u64(0xC0FF);
    for algo in ALGOS {
        for _ in 0..6 {
            let len = rng.gen_range(1usize..2049);
            let off = rng.gen_range(0..LEN - len + 1);
            let (w0, w1) = (off / 8, (off + len - 1) / 8);
            let inside = [w0, w1, rng.gen_range(w0..w1 + 1)];
            for j in inside {
                let by_range = attempts_with_interference(algo, true, off, len, j);
                let by_word = attempts_with_interference(algo, false, off, len, j);
                assert_eq!(
                    by_range, 2,
                    "{algo}: range {off}+{len} missed a commit to word {j}"
                );
                assert_eq!(
                    by_range, by_word,
                    "{algo}: range and word loop disagree on word {j}"
                );
            }
            let outside = if w1 + 1 < LEN.div_ceil(8) {
                w1 + 1
            } else {
                w0 - 1
            };
            assert_eq!(
                attempts_with_interference(algo, true, off, len, outside),
                attempts_with_interference(algo, false, off, len, outside),
                "{algo}: range and word loop disagree on outside word {outside}"
            );
        }
    }
}

/// A panic injected at an orec acquisition in the middle of a range write
/// must undo every word already written and release every orec. Eager
/// acquires per word as it writes; lazy acquires the range's orecs at
/// commit. (NOrec buffers the range and has no injection site until its
/// commit entry, before any lock is taken.)
#[cfg(feature = "fault")]
#[test]
fn panic_mid_range_write_undoes_and_releases() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use tm::fault::{self, FaultPlan, FaultSite};

    let plan = FaultPlan {
        sites: FaultSite::OrecAcquire.bit(),
        abort_per_64k: 0,
        delay_per_64k: 0,
        // About one panic per 128 visits: most land mid-range.
        panic_per_64k: 512,
    };
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for algo in [Algorithm::Eager, Algorithm::Lazy] {
        let rt = runtime(algo);
        let init: Vec<u8> = (0..LEN).map(|i| (i * 5 + 9) as u8).collect();
        let b = TBytes::from_slice(&init);
        let src = vec![0xEEu8; 2000];
        let mut panics = 0u64;
        for seed in 1..=16u64 {
            fault::arm_thread(seed, plan);
            let r = catch_unwind(AssertUnwindSafe(|| {
                rt.atomic(|tx| tx.write_bytes(&b, 3, &src));
            }));
            fault::disarm_thread();
            if r.is_ok() {
                // No fault fired: the write committed; put the bytes back.
                rt.atomic(|tx| tx.write_bytes(&b, 0, &init));
                continue;
            }
            panics += 1;
            assert_eq!(
                b.to_vec_direct(),
                init,
                "{algo} seed {seed}: a written word survived the panic"
            );
            // Every orec must be free: a fresh write of the whole range
            // commits on its first attempt.
            let attempts = Cell::new(0u32);
            rt.atomic(|tx| {
                attempts.set(attempts.get() + 1);
                tx.write_bytes(&b, 3, &src)
            });
            assert_eq!(
                attempts.get(),
                1,
                "{algo} seed {seed}: an orec stayed locked"
            );
            rt.atomic(|tx| tx.write_bytes(&b, 0, &init));
        }
        assert!(panics > 0, "{algo}: the plan never fired mid-range");
        assert_eq!(
            rt.stats().panic_aborts,
            panics,
            "{algo}: panic aborts not counted"
        );
    }
    std::panic::set_hook(prev);
}
