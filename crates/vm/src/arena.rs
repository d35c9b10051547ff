//! The VM byte-array heap.
//!
//! Byte arrays are the only reference type in JSM. They live in an arena
//! owned by the interpreter instance; VM code holds opaque indices. The
//! arena charges every allocation against the invocation's memory budget —
//! the mechanism 1998 JVMs lacked (§6.2: "Memory usage, however, cannot
//! currently be monitored: the JVM does not maintain any information on the
//! memory usage of individual UDFs"). Here every UDF invocation gets a
//! fresh arena, so usage is tracked *per UDF* exactly as the paper says a
//! database needs.
//!
//! No deallocation: an invocation's garbage is reclaimed wholesale when the
//! arena drops — the "allocate in a pool, reclaim at end of query" style
//! the paper notes commercial servers use, applied per invocation.

use jaguar_common::error::{JaguarError, Result, VmTrap};

/// Opaque handle to a byte array in an [`Arena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BytesRef(pub(crate) u32);

/// A per-invocation byte-array heap with memory accounting.
#[derive(Debug, Default)]
pub struct Arena {
    objects: Vec<Vec<u8>>,
    /// Buffers of earlier invocations, kept for the next ones to reuse.
    spare: Vec<Vec<u8>>,
    allocated: usize,
    limit: Option<usize>,
    /// The compiled tier's register stack, parked here between
    /// invocations for the same reason.
    pub(crate) regs: Vec<u64>,
}

impl Arena {
    pub fn new(limit: Option<usize>) -> Arena {
        Arena {
            limit,
            ..Arena::default()
        }
    }

    /// Bytes allocated so far (monotonic; arenas never free individually).
    pub fn allocated(&self) -> usize {
        self.allocated
    }

    /// Reclaim everything, keeping the limit and every buffer's capacity
    /// for the next invocation. Batched execution resets one arena per row
    /// instead of constructing a fresh one, so the accounting stays
    /// per-invocation while the allocations are amortized.
    pub fn reset(&mut self) {
        self.spare.append(&mut self.objects);
        self.allocated = 0;
    }

    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Allocate a zeroed array. Fails (containably) if the invocation's
    /// memory budget would be exceeded.
    pub fn alloc_zeroed(&mut self, len: usize) -> Result<BytesRef> {
        self.alloc_with(len, |buf| buf.resize(len, 0))
    }

    /// Allocate an array initialised from `data` (argument marshalling —
    /// this copy is the "mapping large bytearrays to Java" cost of Fig. 5).
    pub fn alloc_from(&mut self, data: &[u8]) -> Result<BytesRef> {
        self.alloc_with(data.len(), |buf| buf.extend_from_slice(data))
    }

    /// Charge `len` bytes, then fill the next buffer (a kept one if any).
    fn alloc_with(&mut self, len: usize, fill: impl FnOnce(&mut Vec<u8>)) -> Result<BytesRef> {
        self.charge(len)?;
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.clear();
        fill(&mut buf);
        self.objects.push(buf);
        Ok(BytesRef((self.objects.len() - 1) as u32))
    }

    fn charge(&mut self, len: usize) -> Result<()> {
        let new_total = self.allocated.saturating_add(len);
        if let Some(limit) = self.limit {
            if new_total > limit {
                return Err(JaguarError::ResourceLimit(format!(
                    "memory: {new_total} bytes requested, limit {limit}"
                )));
            }
        }
        if self.objects.len() >= u32::MAX as usize {
            return Err(JaguarError::ResourceLimit("object count".into()));
        }
        self.allocated = new_total;
        Ok(())
    }

    /// Length of an array.
    pub fn len(&self, r: BytesRef) -> Result<usize> {
        Ok(self.get(r)?.len())
    }

    /// Read one byte, **bounds-checked** — the per-access cost that makes
    /// Java slower on data-dependent UDFs (Figure 7).
    #[inline]
    pub fn load(&self, r: BytesRef, index: i64) -> Result<u8> {
        let obj = self.get(r)?;
        if index < 0 || index as usize >= obj.len() {
            return Err(JaguarError::VmTrap(VmTrap::Bounds {
                index,
                len: obj.len(),
            }));
        }
        Ok(obj[index as usize])
    }

    /// Write one byte, **bounds-checked**.
    #[inline]
    pub fn store(&mut self, r: BytesRef, index: i64, value: u8) -> Result<()> {
        let obj = self.bytes_mut(r)?;
        if index < 0 || index as usize >= obj.len() {
            let len = obj.len();
            return Err(JaguarError::VmTrap(VmTrap::Bounds { index, len }));
        }
        obj[index as usize] = value;
        Ok(())
    }

    /// Borrow the whole array (host-side access for result marshalling).
    pub fn get(&self, r: BytesRef) -> Result<&[u8]> {
        self.objects
            .get(r.0 as usize)
            .map(|v| v.as_slice())
            .ok_or(JaguarError::VmTrap(VmTrap::Type(
                "dangling bytes reference",
            )))
    }

    /// Borrow the whole array mutably (the compiled tier's per-strip
    /// resolution of a loop's array).
    pub(crate) fn bytes_mut(&mut self, r: BytesRef) -> Result<&mut [u8]> {
        self.objects
            .get_mut(r.0 as usize)
            .map(|v| v.as_mut_slice())
            .ok_or(JaguarError::VmTrap(VmTrap::Type(
                "dangling bytes reference",
            )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_load_store() {
        let mut a = Arena::new(None);
        let r = a.alloc_zeroed(4).unwrap();
        assert_eq!(a.len(r).unwrap(), 4);
        assert_eq!(a.load(r, 0).unwrap(), 0);
        a.store(r, 3, 200).unwrap();
        assert_eq!(a.load(r, 3).unwrap(), 200);
    }

    #[test]
    fn bounds_checked() {
        let mut a = Arena::new(None);
        let r = a.alloc_zeroed(4).unwrap();
        assert!(matches!(
            a.load(r, 4),
            Err(JaguarError::VmTrap(VmTrap::Bounds { index: 4, len: 4 }))
        ));
        assert!(a.load(r, -1).is_err());
        assert!(a.store(r, 100, 1).is_err());
    }

    #[test]
    fn memory_limit_enforced() {
        let mut a = Arena::new(Some(100));
        a.alloc_zeroed(60).unwrap();
        a.alloc_zeroed(40).unwrap();
        let e = a.alloc_zeroed(1).unwrap_err();
        assert!(matches!(e, JaguarError::ResourceLimit(_)));
        assert_eq!(a.allocated(), 100);
    }

    #[test]
    fn alloc_from_copies() {
        let mut a = Arena::new(None);
        let data = vec![1, 2, 3];
        let r = a.alloc_from(&data).unwrap();
        assert_eq!(a.get(r).unwrap(), &[1, 2, 3]);
        assert_eq!(a.allocated(), 3);
    }

    #[test]
    fn dangling_ref_is_trap() {
        let a = Arena::new(None);
        assert!(a.get(BytesRef(9)).is_err());
    }

    #[test]
    fn zero_length_arrays_fine() {
        let mut a = Arena::new(Some(10));
        let r = a.alloc_zeroed(0).unwrap();
        assert_eq!(a.len(r).unwrap(), 0);
        assert!(a.load(r, 0).is_err());
    }
}
