//! Transaction-safe reimplementations of the untyped-memory functions the
//! paper lists in §3.4: `memcmp`, `memcpy` (plus `memmove`/`memset` for
//! completeness), and the "naive" `realloc`.

use tm::{Abort, TBytes};

use crate::access::ByteAccess;

/// `memcmp(x + xoff, y + yoff, n)`: byte-wise three-way comparison.
/// Returns negative, zero, or positive like the libc function.
///
/// # Errors
///
/// [`Abort::Conflict`] under transactional access.
///
/// # Panics
///
/// Panics if either range exceeds its buffer.
pub fn memcmp<'e, A: ByteAccess<'e>>(
    a: &mut A,
    x: &'e TBytes,
    xoff: usize,
    y: &'e TBytes,
    yoff: usize,
    n: usize,
) -> Result<i32, Abort> {
    // Chunked bulk reads keep both operands word-granular (one log entry
    // per 8 bytes under transactional access); the byte loop only decides
    // the sign at the first differing chunk.
    let mut bx = [0u8; 32];
    let mut by = [0u8; 32];
    let mut k = 0;
    while k < n {
        let m = (n - k).min(bx.len());
        a.get_range(x, xoff + k, &mut bx[..m])?;
        a.get_range(y, yoff + k, &mut by[..m])?;
        if bx[..m] != by[..m] {
            for j in 0..m {
                if bx[j] != by[j] {
                    return Ok(i32::from(bx[j]) - i32::from(by[j]));
                }
            }
        }
        k += m;
    }
    Ok(0)
}

/// `memcmp` where the second operand is thread-local (a key the worker is
/// looking up — the common shape in memcached's `assoc_find`).
///
/// # Errors
///
/// [`Abort::Conflict`] under transactional access.
pub fn memcmp_slice<'e, A: ByteAccess<'e>>(
    a: &mut A,
    x: &'e TBytes,
    xoff: usize,
    y: &[u8],
) -> Result<i32, Abort> {
    // Chunked bulk reads keep the instrumented clone word-wise.
    let mut buf = [0u8; 32];
    let mut k = 0;
    while k < y.len() {
        let n = (y.len() - k).min(buf.len());
        a.get_range(x, xoff + k, &mut buf[..n])?;
        for j in 0..n {
            let xb = buf[j];
            let yb = y[k + j];
            if xb != yb {
                return Ok(xb as i32 - yb as i32);
            }
        }
        k += n;
    }
    Ok(0)
}

/// `memcpy(dst + doff, src + soff, n)` between two (non-overlapping uses
/// of) buffers.
///
/// # Errors
///
/// [`Abort::Conflict`] under transactional access.
pub fn memcpy<'e, A: ByteAccess<'e>>(
    a: &mut A,
    dst: &'e TBytes,
    doff: usize,
    src: &'e TBytes,
    soff: usize,
    n: usize,
) -> Result<(), Abort> {
    // The bounce buffer is moved with word-granular get_range/put_range
    // (one orec per 64-byte block and one redo entry per 8 bytes; byte
    // merging only at the unaligned edges), so a 1KB value costs ~128
    // redo entries instead of 1024 — the redo-log tax the paper's §4
    // measures.
    let mut buf = [0u8; 256];
    let mut k = 0;
    while k < n {
        let m = (n - k).min(buf.len());
        a.get_range(src, soff + k, &mut buf[..m])?;
        a.put_range(dst, doff + k, &buf[..m])?;
        k += m;
    }
    Ok(())
}

/// `memmove`: like [`memcpy`] but correct for overlapping ranges within the
/// same buffer (copies through a full temporary).
///
/// # Errors
///
/// [`Abort::Conflict`] under transactional access.
pub fn memmove<'e, A: ByteAccess<'e>>(
    a: &mut A,
    dst: &'e TBytes,
    doff: usize,
    src: &'e TBytes,
    soff: usize,
    n: usize,
) -> Result<(), Abort> {
    let mut tmp = vec![0u8; n];
    a.get_range(src, soff, &mut tmp)?;
    a.put_range(dst, doff, &tmp)?;
    Ok(())
}

/// Copies a thread-local slice into shared memory (the store path of a
/// memcached `set`).
///
/// # Errors
///
/// [`Abort::Conflict`] under transactional access.
pub fn memcpy_from_slice<'e, A: ByteAccess<'e>>(
    a: &mut A,
    dst: &'e TBytes,
    doff: usize,
    src: &[u8],
) -> Result<(), Abort> {
    a.put_range(dst, doff, src)
}

/// Copies shared memory into a thread-local slice (the read path of a
/// memcached `get` building its response).
///
/// # Errors
///
/// [`Abort::Conflict`] under transactional access.
pub fn memcpy_to_slice<'e, A: ByteAccess<'e>>(
    a: &mut A,
    src: &'e TBytes,
    soff: usize,
    dst: &mut [u8],
) -> Result<(), Abort> {
    a.get_range(src, soff, dst)
}

/// `memset(dst + doff, byte, n)`.
///
/// # Errors
///
/// [`Abort::Conflict`] under transactional access.
pub fn memset<'e, A: ByteAccess<'e>>(
    a: &mut A,
    dst: &'e TBytes,
    doff: usize,
    byte: u8,
    n: usize,
) -> Result<(), Abort> {
    let chunk = [byte; 64];
    let mut k = 0;
    while k < n {
        let m = (n - k).min(chunk.len());
        a.put_range(dst, doff + k, &chunk[..m])?;
        k += m;
    }
    Ok(())
}

/// The paper's naive transaction-safe `realloc`: "always allocating a new
/// buffer and using memcpy". The new buffer is transaction-local until
/// published by the caller, so allocation itself needs no instrumentation.
///
/// # Errors
///
/// [`Abort::Conflict`] under transactional access.
pub fn realloc<'e, A: ByteAccess<'e>>(
    a: &mut A,
    old: &'e TBytes,
    new_len: usize,
) -> Result<TBytes, Abort> {
    let new = TBytes::zeroed(new_len);
    let n = old.len().min(new_len);
    let mut tmp = vec![0u8; n];
    a.get_range(old, 0, &mut tmp)?;
    new.store_slice_direct(0, &tmp); // private until published
    Ok(new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{DirectAccess, TxAccess};
    use tm::TmRuntime;

    #[test]
    fn memcmp_matches_libc_semantics() {
        let x = TBytes::from_slice(b"abcdef");
        let y = TBytes::from_slice(b"abcxef");
        let mut a = DirectAccess;
        assert_eq!(memcmp(&mut a, &x, 0, &y, 0, 3).unwrap(), 0);
        assert!(memcmp(&mut a, &x, 0, &y, 0, 6).unwrap() < 0);
        assert!(memcmp(&mut a, &y, 0, &x, 0, 6).unwrap() > 0);
        assert_eq!(memcmp(&mut a, &x, 4, &y, 4, 2).unwrap(), 0);
    }

    #[test]
    fn memcmp_slice_long_keys_chunked() {
        let key: Vec<u8> = (0..100u8).collect();
        let x = TBytes::from_slice(&key);
        let mut a = DirectAccess;
        assert_eq!(memcmp_slice(&mut a, &x, 0, &key).unwrap(), 0);
        let mut other = key.clone();
        other[63] ^= 0xFF;
        assert_ne!(memcmp_slice(&mut a, &x, 0, &other).unwrap(), 0);
    }

    #[test]
    fn memcpy_between_buffers() {
        let src = TBytes::from_slice(b"the quick brown fox");
        let dst = TBytes::zeroed(19);
        let mut a = DirectAccess;
        memcpy(&mut a, &dst, 0, &src, 0, 19).unwrap();
        assert_eq!(dst.to_vec_direct(), b"the quick brown fox");
    }

    #[test]
    fn memcpy_transactional_clone() {
        let rt = TmRuntime::default_runtime();
        let src = TBytes::from_slice(&[7u8; 100]);
        let dst = TBytes::zeroed(100);
        rt.atomic(|tx| {
            let mut a = TxAccess::new(tx);
            memcpy(&mut a, &dst, 0, &src, 0, 100)
        });
        assert_eq!(dst.to_vec_direct(), vec![7u8; 100]);
    }

    #[test]
    fn memmove_overlapping_forward() {
        let b = TBytes::from_slice(b"1234567890");
        let mut a = DirectAccess;
        memmove(&mut a, &b, 2, &b, 0, 8).unwrap();
        assert_eq!(b.to_vec_direct(), b"1212345678");
    }

    #[test]
    fn memset_fills() {
        let b = TBytes::zeroed(100);
        let mut a = DirectAccess;
        memset(&mut a, &b, 10, 0xEE, 80).unwrap();
        let v = b.to_vec_direct();
        assert_eq!(v[9], 0);
        assert!(v[10..90].iter().all(|&x| x == 0xEE));
        assert_eq!(v[90], 0);
    }

    #[test]
    fn realloc_grows_and_shrinks() {
        let old = TBytes::from_slice(b"data");
        let mut a = DirectAccess;
        let grown = realloc(&mut a, &old, 8).unwrap();
        assert_eq!(grown.to_vec_direct(), b"data\0\0\0\0");
        let shrunk = realloc(&mut a, &old, 2).unwrap();
        assert_eq!(shrunk.to_vec_direct(), b"da");
    }

    #[test]
    fn slice_copies() {
        let b = TBytes::zeroed(8);
        let mut a = DirectAccess;
        memcpy_from_slice(&mut a, &b, 1, b"abc").unwrap();
        let mut out = [0u8; 3];
        memcpy_to_slice(&mut a, &b, 1, &mut out).unwrap();
        assert_eq!(&out, b"abc");
    }
}
