//! The [`ByteAccess`] abstraction: one function body, two "clones".
//!
//! The Draft C++ TM Specification requires the transactional and
//! non-transactional versions of a `transaction_safe` function to be
//! generated from the same source (the paper complains this forbids
//! hand-optimized assembly in either clone). This crate reproduces that
//! property literally: every string/memory function is written once,
//! generic over [`ByteAccess`], and monomorphizes into
//!
//! * an **instrumented clone** via [`TxAccess`] (every byte touched through
//!   the STM, logged and validated), and
//! * an **uninstrumented clone** via [`DirectAccess`] (plain atomic loads
//!   and stores, for lock-based baseline branches and privatized data).

use std::marker::PhantomData;

use tm::{Abort, TBytes, TWord, Transaction};

/// How a string/memory routine touches [`TBytes`] buffers.
///
/// The `'env` lifetime ties buffers to the enclosing transaction's
/// environment, exactly as in [`tm::Transaction`].
pub trait ByteAccess<'env> {
    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] under transactional access; never for direct.
    fn get(&mut self, b: &'env TBytes, i: usize) -> Result<u8, Abort>;

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] under transactional access; never for direct.
    fn put(&mut self, b: &'env TBytes, i: usize, v: u8) -> Result<(), Abort>;

    /// Bulk read; the default delegates to [`ByteAccess::get`], but
    /// implementations may move whole words.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] under transactional access.
    fn get_range(&mut self, b: &'env TBytes, off: usize, dst: &mut [u8]) -> Result<(), Abort> {
        for (k, d) in dst.iter_mut().enumerate() {
            *d = self.get(b, off + k)?;
        }
        Ok(())
    }

    /// Bulk write; see [`ByteAccess::get_range`].
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] under transactional access.
    fn put_range(&mut self, b: &'env TBytes, off: usize, src: &[u8]) -> Result<(), Abort> {
        for (k, &v) in src.iter().enumerate() {
            self.put(b, off + k, v)?;
        }
        Ok(())
    }

    /// Reads whole backing words of a [`TBytes`], starting at word index
    /// `wi` — the bulk primitive behind the word-granular
    /// `strlen`/`memcmp` clones (one orec per 64-byte block under
    /// transactional access). Padding bytes past `b.len()` read as zero.
    ///
    /// The default reconstructs words from byte reads; both built-in
    /// implementations override it.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] under transactional access.
    ///
    /// # Panics
    ///
    /// Panics if `wi + dst.len() > b.word_count()`.
    fn get_words(&mut self, b: &'env TBytes, wi: usize, dst: &mut [u64]) -> Result<(), Abort> {
        assert!(
            wi.checked_add(dst.len()).is_some_and(|e| e <= b.word_count()),
            "TBytes word range {wi}..{} out of bounds ({} words)",
            wi + dst.len(),
            b.word_count()
        );
        for (j, d) in dst.iter_mut().enumerate() {
            let base = (wi + j) * 8;
            let mut w = 0u64;
            for bi in 0..8usize.min(b.len().saturating_sub(base)) {
                w |= u64::from(self.get(b, base + bi)?) << (bi * 8);
            }
            *d = w;
        }
        Ok(())
    }

    /// Writes whole backing words of a [`TBytes`] starting at word index
    /// `wi`. The caller owns every byte of the covered words; padding
    /// bytes past `b.len()` must be written as zero.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] under transactional access.
    ///
    /// # Panics
    ///
    /// Panics if `wi + src.len() > b.word_count()`.
    fn put_words(&mut self, b: &'env TBytes, wi: usize, src: &[u64]) -> Result<(), Abort> {
        assert!(
            wi.checked_add(src.len()).is_some_and(|e| e <= b.word_count()),
            "TBytes word range {wi}..{} out of bounds ({} words)",
            wi + src.len(),
            b.word_count()
        );
        for (j, &w) in src.iter().enumerate() {
            let base = (wi + j) * 8;
            let bytes = w.to_le_bytes();
            let n = 8usize.min(b.len().saturating_sub(base));
            for bi in 0..n {
                self.put(b, base + bi, bytes[bi])?;
            }
        }
        Ok(())
    }

    /// Reads one whole [`TWord`] (header fields, pointers, counters).
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] under transactional access.
    fn get_word(&mut self, w: &'env TWord) -> Result<u64, Abort>;

    /// Writes one whole [`TWord`].
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] under transactional access.
    fn put_word(&mut self, w: &'env TWord, v: u64) -> Result<(), Abort>;
}

/// Instrumented access through a live transaction.
#[derive(Debug)]
pub struct TxAccess<'a, 'env, T> {
    tx: &'a mut T,
    _env: PhantomData<&'env ()>,
}

impl<'a, 'env, T: Transaction<'env>> TxAccess<'a, 'env, T> {
    /// Wraps a transaction for use with the string/memory routines.
    pub fn new(tx: &'a mut T) -> Self {
        TxAccess {
            tx,
            _env: PhantomData,
        }
    }
}

impl<'env, T: Transaction<'env>> ByteAccess<'env> for TxAccess<'_, 'env, T> {
    #[inline]
    fn get(&mut self, b: &'env TBytes, i: usize) -> Result<u8, Abort> {
        self.tx.read_byte(b, i)
    }

    #[inline]
    fn put(&mut self, b: &'env TBytes, i: usize, v: u8) -> Result<(), Abort> {
        self.tx.write_byte(b, i, v)
    }

    fn get_range(&mut self, b: &'env TBytes, off: usize, dst: &mut [u8]) -> Result<(), Abort> {
        self.tx.read_bytes(b, off, dst)
    }

    fn put_range(&mut self, b: &'env TBytes, off: usize, src: &[u8]) -> Result<(), Abort> {
        self.tx.write_bytes(b, off, src)
    }

    fn get_words(&mut self, b: &'env TBytes, wi: usize, dst: &mut [u64]) -> Result<(), Abort> {
        self.tx.read_words(b, wi, dst)
    }

    fn put_words(&mut self, b: &'env TBytes, wi: usize, src: &[u64]) -> Result<(), Abort> {
        self.tx.write_words(b, wi, src)
    }

    fn get_word(&mut self, w: &'env TWord) -> Result<u64, Abort> {
        self.tx.read_word(w)
    }

    fn put_word(&mut self, w: &'env TWord, v: u64) -> Result<(), Abort> {
        self.tx.write_word(w, v)
    }
}

/// Uninstrumented access: the "non-transactional clone". Infallible in
/// practice (every method returns `Ok`).
#[derive(Debug, Default, Clone, Copy)]
pub struct DirectAccess;

impl<'env> ByteAccess<'env> for DirectAccess {
    #[inline]
    fn get(&mut self, b: &'env TBytes, i: usize) -> Result<u8, Abort> {
        Ok(b.load_byte_direct(i))
    }

    #[inline]
    fn put(&mut self, b: &'env TBytes, i: usize, v: u8) -> Result<(), Abort> {
        b.store_byte_direct(i, v);
        Ok(())
    }

    fn get_range(&mut self, b: &'env TBytes, off: usize, dst: &mut [u8]) -> Result<(), Abort> {
        b.load_slice_direct(off, dst);
        Ok(())
    }

    fn put_range(&mut self, b: &'env TBytes, off: usize, src: &[u8]) -> Result<(), Abort> {
        b.store_slice_direct(off, src);
        Ok(())
    }

    fn get_words(&mut self, b: &'env TBytes, wi: usize, dst: &mut [u64]) -> Result<(), Abort> {
        for (j, d) in dst.iter_mut().enumerate() {
            *d = b.load_word_direct(wi + j);
        }
        Ok(())
    }

    fn put_words(&mut self, b: &'env TBytes, wi: usize, src: &[u64]) -> Result<(), Abort> {
        for (j, &w) in src.iter().enumerate() {
            b.store_word_direct(wi + j, w);
        }
        Ok(())
    }

    fn get_word(&mut self, w: &'env TWord) -> Result<u64, Abort> {
        Ok(w.load_direct())
    }

    fn put_word(&mut self, w: &'env TWord, v: u64) -> Result<(), Abort> {
        w.store_direct(v);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm::TmRuntime;

    #[test]
    fn direct_access_roundtrip() {
        let b = TBytes::zeroed(8);
        let mut a = DirectAccess;
        a.put(&b, 0, 42).unwrap();
        assert_eq!(a.get(&b, 0).unwrap(), 42);
        a.put_range(&b, 2, b"abc").unwrap();
        let mut out = [0u8; 3];
        a.get_range(&b, 2, &mut out).unwrap();
        assert_eq!(&out, b"abc");
    }

    #[test]
    fn tx_access_roundtrip() {
        let rt = TmRuntime::default_runtime();
        let b = TBytes::zeroed(8);
        rt.atomic(|tx| {
            let mut a = TxAccess::new(tx);
            a.put_range(&b, 1, b"xyz")?;
            let mut out = [0u8; 3];
            a.get_range(&b, 1, &mut out)?;
            assert_eq!(&out, b"xyz");
            Ok(())
        });
        assert_eq!(b.load_byte_direct(2), b'y');
    }
}
