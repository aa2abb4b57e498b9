//! Transaction-safe reimplementations of the basic string functions the
//! paper lists in §3.4: `strlen`, `strncmp`, `strncpy`, `strchr` (plus
//! `strnlen` as the bounded form every real use in memcached wants).
//!
//! The scanning functions are word-granular: whole words via
//! [`ByteAccess::get_words`] (one range read per 32 bytes in `strnlen`,
//! per word in `strchr`), with SWAR zero-byte detection on the loaded
//! words and byte-granularity handling of the unaligned head and the
//! sub-word tail. This is the half of the paper's `memcpy`-tax
//! argument that applies to *reads*: under the buffered-update algorithms
//! every byte access used to cost a redo-map probe plus a full word log
//! entry, eight times over per word of string.

use tm::{Abort, TBytes};

use crate::access::ByteAccess;

/// Position (0..8, little-endian byte order) of the first zero byte in
/// `w`, if any. The classic SWAR trick: `(w - 0x01..01) & !w & 0x80..80`
/// has the high bit set exactly at zero bytes at or below the first
/// borrow, and no false positive can precede the first true zero byte.
#[inline]
fn zero_byte_pos(w: u64) -> Option<usize> {
    let m = w.wrapping_sub(0x0101_0101_0101_0101) & !w & 0x8080_8080_8080_8080;
    if m == 0 {
        None
    } else {
        Some(m.trailing_zeros() as usize / 8)
    }
}

/// `strlen(s + off)`: bytes before the first NUL.
///
/// # Errors
///
/// [`Abort::Conflict`] under transactional access.
///
/// Returns `Err`? No — a string with no NUL inside the buffer is a caller
/// bug in C; here the scan safely stops at the buffer end and the result is
/// `s.len() - off` (the bounded behavior of `strnlen`).
pub fn strlen<'e, A: ByteAccess<'e>>(a: &mut A, s: &'e TBytes, off: usize) -> Result<usize, Abort> {
    strnlen(a, s, off, s.len().saturating_sub(off))
}

/// `strnlen(s + off, maxlen)`.
///
/// # Errors
///
/// [`Abort::Conflict`] under transactional access.
pub fn strnlen<'e, A: ByteAccess<'e>>(
    a: &mut A,
    s: &'e TBytes,
    off: usize,
    maxlen: usize,
) -> Result<usize, Abort> {
    let limit = maxlen.min(s.len().saturating_sub(off));
    let mut k = 0;
    // Byte-granularity head up to word alignment.
    while k < limit && (off + k) % 8 != 0 {
        if a.get(s, off + k)? == 0 {
            return Ok(k);
        }
        k += 1;
    }
    // Word-granular SWAR scan over the aligned middle, 32 bytes per
    // range read (like `strncmp`'s chunks: the scan may read up to three
    // words past the NUL).
    while limit - k >= 8 {
        let mut w = [0u64; 4];
        let m = ((limit - k) / 8).min(w.len());
        a.get_words(s, (off + k) / 8, &mut w[..m])?;
        for (j, &word) in w[..m].iter().enumerate() {
            if let Some(p) = zero_byte_pos(word) {
                return Ok(k + 8 * j + p);
            }
        }
        k += 8 * m;
    }
    // Byte-granularity tail.
    while k < limit {
        if a.get(s, off + k)? == 0 {
            return Ok(k);
        }
        k += 1;
    }
    Ok(limit)
}

/// `strncmp(s + off, t, n)` against a thread-local second operand, with C
/// semantics: comparison stops at a NUL in either string.
///
/// # Errors
///
/// [`Abort::Conflict`] under transactional access.
pub fn strncmp<'e, A: ByteAccess<'e>>(
    a: &mut A,
    s: &'e TBytes,
    off: usize,
    t: &[u8],
    n: usize,
) -> Result<i32, Abort> {
    // Chunked word-granular reads of `s` (get_range handles unaligned
    // head/tail at byte granularity); the compare itself stays byte-wise
    // for the NUL-stop semantics.
    let mut buf = [0u8; 32];
    let mut k = 0;
    while k < n {
        let m = (n - k).min(buf.len()).min(s.len().saturating_sub(off + k));
        if m == 0 {
            // Past the buffer end `s` reads as NUL, which ends the
            // comparison either way.
            return Ok(-i32::from(t.get(k).copied().unwrap_or(0)));
        }
        a.get_range(s, off + k, &mut buf[..m])?;
        for j in 0..m {
            let sb = buf[j];
            let tb = t.get(k + j).copied().unwrap_or(0);
            if sb != tb {
                return Ok(i32::from(sb) - i32::from(tb));
            }
            if sb == 0 {
                return Ok(0);
            }
        }
        k += m;
    }
    Ok(0)
}

/// `strncpy(dst + doff, src, n)` with C semantics: copies at most `n`
/// bytes, stopping after a NUL and padding the remainder with NULs.
///
/// # Errors
///
/// [`Abort::Conflict`] under transactional access.
///
/// # Panics
///
/// Panics if `doff + n` exceeds the destination buffer.
pub fn strncpy<'e, A: ByteAccess<'e>>(
    a: &mut A,
    dst: &'e TBytes,
    doff: usize,
    src: &[u8],
    n: usize,
) -> Result<(), Abort> {
    // Bulk-copy up to the source NUL, then bulk-pad with NULs — both
    // word-granular through put_range instead of one put per byte.
    let copy = src
        .iter()
        .position(|&b| b == 0)
        .unwrap_or(src.len())
        .min(n);
    a.put_range(dst, doff, &src[..copy])?;
    let zeros = [0u8; 64];
    let mut k = copy;
    while k < n {
        let m = (n - k).min(zeros.len());
        a.put_range(dst, doff + k, &zeros[..m])?;
        k += m;
    }
    Ok(())
}

/// `strchr(s + off, c)` bounded by the buffer (and by a NUL, as in C):
/// index of the first occurrence of `c`, relative to `off`.
///
/// # Errors
///
/// [`Abort::Conflict`] under transactional access.
pub fn strchr<'e, A: ByteAccess<'e>>(
    a: &mut A,
    s: &'e TBytes,
    off: usize,
    c: u8,
) -> Result<Option<usize>, Abort> {
    let limit = s.len().saturating_sub(off);
    let mut k = 0;
    // Byte-granularity head up to word alignment.
    while k < limit && (off + k) % 8 != 0 {
        let b = a.get(s, off + k)?;
        if b == c {
            return Ok(Some(k));
        }
        if b == 0 {
            // NUL terminates the search; NUL itself is findable (C allows
            // strchr(s, '\0')).
            return Ok(if c == 0 { Some(k) } else { None });
        }
        k += 1;
    }
    // Word-granular middle: SWAR-search each word for both `c` (xor with
    // the broadcast byte turns matches into zero bytes) and NUL.
    let broadcast = u64::from(c) * 0x0101_0101_0101_0101;
    while limit - k >= 8 {
        let mut w = [0u64; 1];
        a.get_words(s, (off + k) / 8, &mut w)?;
        let cpos = zero_byte_pos(w[0] ^ broadcast);
        let zpos = zero_byte_pos(w[0]);
        if let Some(cp) = cpos {
            if zpos.map_or(true, |z| cp <= z) {
                return Ok(Some(k + cp));
            }
        }
        if zpos.is_some() {
            return Ok(None); // NUL before any match (c == 0 hits cpos first)
        }
        k += 8;
    }
    // Byte-granularity tail.
    while k < limit {
        let b = a.get(s, off + k)?;
        if b == c {
            return Ok(Some(k));
        }
        if b == 0 {
            return Ok(if c == 0 { Some(k) } else { None });
        }
        k += 1;
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{DirectAccess, TxAccess};
    use tm::TmRuntime;

    #[test]
    fn strlen_stops_at_nul() {
        let s = TBytes::from_slice(b"hello\0world");
        let mut a = DirectAccess;
        assert_eq!(strlen(&mut a, &s, 0).unwrap(), 5);
        assert_eq!(strlen(&mut a, &s, 6).unwrap(), 5);
    }

    #[test]
    fn strlen_without_nul_is_bounded() {
        let s = TBytes::from_slice(b"abc");
        let mut a = DirectAccess;
        assert_eq!(strlen(&mut a, &s, 0).unwrap(), 3);
    }

    #[test]
    fn strnlen_bounds() {
        let s = TBytes::from_slice(b"abcdef");
        let mut a = DirectAccess;
        assert_eq!(strnlen(&mut a, &s, 0, 4).unwrap(), 4);
        assert_eq!(strnlen(&mut a, &s, 4, 100).unwrap(), 2);
    }

    #[test]
    fn strncmp_c_semantics() {
        let s = TBytes::from_slice(b"get \0junk");
        let mut a = DirectAccess;
        assert_eq!(strncmp(&mut a, &s, 0, b"get ", 4).unwrap(), 0);
        assert!(strncmp(&mut a, &s, 0, b"gex ", 4).unwrap() < 0);
        // NUL stops comparison even when n is larger.
        assert_eq!(strncmp(&mut a, &s, 0, b"get \0zzz", 8).unwrap(), 0);
    }

    #[test]
    fn strncpy_pads_with_nuls() {
        let d = TBytes::from_slice(&[0xFF; 8]);
        let mut a = DirectAccess;
        strncpy(&mut a, &d, 0, b"ab\0cd", 6).unwrap();
        assert_eq!(d.to_vec_direct(), vec![b'a', b'b', 0, 0, 0, 0, 0xFF, 0xFF]);
    }

    #[test]
    fn strchr_finds_and_respects_nul() {
        let s = TBytes::from_slice(b"key=value\0garbage=");
        let mut a = DirectAccess;
        assert_eq!(strchr(&mut a, &s, 0, b'=').unwrap(), Some(3));
        assert_eq!(strchr(&mut a, &s, 4, b'=').unwrap(), None, "second '=' is past the NUL");
        assert_eq!(strchr(&mut a, &s, 0, 0).unwrap(), Some(9));
        assert_eq!(strchr(&mut a, &s, 0, b'!').unwrap(), None);
    }

    #[test]
    fn strnlen_finds_the_nul_in_every_chunk_position() {
        // NULs at every position of several 32-byte range reads, from
        // every head alignment, and no NUL at all.
        let rt = TmRuntime::default_runtime();
        for nul in (0..80).chain([usize::MAX]) {
            let bytes: Vec<u8> = (0..80).map(|i| if i == nul { 0 } else { b'x' }).collect();
            let s = TBytes::from_slice(&bytes);
            for off in 0..9 {
                let want = bytes[off..].iter().position(|&b| b == 0).unwrap_or(80 - off);
                let direct = strlen(&mut DirectAccess, &s, off).unwrap();
                assert_eq!(direct, want, "nul {nul} off {off}");
                let tx_len = rt.atomic(|tx| strlen(&mut TxAccess::new(tx), &s, off));
                assert_eq!(tx_len, want, "transactional, nul {nul} off {off}");
            }
        }
    }

    #[test]
    fn transactional_clone_agrees_with_direct() {
        let rt = TmRuntime::default_runtime();
        let s = TBytes::from_slice(b"stats items\0");
        let tx_len = rt.atomic(|tx| {
            let mut a = TxAccess::new(tx);
            strlen(&mut a, &s, 0)
        });
        let mut d = DirectAccess;
        assert_eq!(tx_len, strlen(&mut d, &s, 0).unwrap());
    }
}
