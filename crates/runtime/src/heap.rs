//! The region heap: one bump arena of 64-bit words per live region, shared
//! by both execution engines.
//!
//! Regions form a stack over a distinguished heap region (region 0):
//! `letreg` pushes a region, leaving its scope pops it, and popping frees
//! every object inside **wholesale** by dropping the arena — the paper's
//! dynamic semantics of `letreg`, executed for real, and the model of the
//! RTSJ and of the Titanium allocator the paper measured against. Each
//! live region holds its objects' actual payloads: allocation bumps the
//! owning region's word vector.
//!
//! # The region table
//!
//! Only live arenas are kept, in a stack (bottom: the heap, region 0).
//! Region ids are handed out sequentially and never reused; a `Vec<u32>`
//! with one entry per id ever created maps the id to its arena's stack
//! slot, or to a `DEAD` sentinel once the region is popped. An access
//! through a reference into a popped region is therefore detected
//! exactly and in O(1), even after later regions took over its stack
//! slot and its recycled word buffer. What a created region costs once
//! it is popped is its 4-byte table entry: 10 million letregs leave a
//! 40 MB table. That cost still grows with the number of regions a run
//! creates.
//!
//! # Space accounting
//!
//! Every object pays a 16-byte header and 8 bytes per field or element
//! ([`object_bytes`]). The heap tracks *total* allocated bytes and *peak
//! live* bytes; their ratio is Fig 8's "Space Usage / Total Allocation"
//! column ([`SpaceStats::space_ratio`]).
//!
//! # Object layout (word offsets from the object's base)
//!
//! | word | object | array |
//! |---|---|---|
//! | 0 | allocation serial | allocation serial |
//! | 1 | meta: class, #regions, #fields | meta: array bit, element tag, length |
//! | 2… | region arguments | elements (raw words) |
//! | 2+#regions… | fields (raw words) | — |

use crate::value::Value;
use cj_frontend::types::{NType, Prim};
use std::fmt;

/// Identifies a runtime region. Id 0 is the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == 0 {
            f.write_str("heap")
        } else {
            write!(f, "#{}", self.0)
        }
    }
}

/// Errors from the region allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionError {
    /// Allocation into a region that has already been deleted.
    DeadRegion(RegionId),
    /// Pop of a region that is not the top of the stack.
    NotTopOfStack(RegionId),
}

impl fmt::Display for RegionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionError::DeadRegion(r) => write!(f, "allocation into deleted region {r}"),
            RegionError::NotTopOfStack(r) => {
                write!(f, "region {r} popped out of stack order")
            }
        }
    }
}

impl std::error::Error for RegionError {}

/// Space accounting for one program run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaceStats {
    /// Bytes allocated over the whole run.
    pub total_allocated: usize,
    /// Maximum simultaneously-live bytes.
    pub peak_live: usize,
    /// Number of regions ever created (excluding the heap).
    pub regions_created: usize,
    /// Number of objects allocated.
    pub objects_allocated: usize,
}

impl SpaceStats {
    /// Peak-live over total-allocated: 1.0 means no reuse at all; small
    /// values mean regions reclaimed memory aggressively (Fig 8).
    pub fn space_ratio(&self) -> f64 {
        if self.total_allocated == 0 {
            return 1.0;
        }
        self.peak_live as f64 / self.total_allocated as f64
    }
}

/// Size model (documented for reproducibility): every object pays a
/// 16-byte header; each field or array element occupies 8 bytes.
pub fn object_bytes(field_count: usize) -> usize {
    16 + 8 * field_count
}

/// The runtime representation class of one field or array-element slot.
/// Payload slots are raw 64-bit words; a read decodes the word with the
/// static type of the access, so the heap never inspects a stored word to
/// learn its type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotTy {
    /// `int` — the word is the `i64` bit pattern.
    Int,
    /// `bool` — 0 or 1.
    Bool,
    /// `float` — `f64::to_bits`.
    Float,
    /// A reference — packed region/offset, or the null sentinel.
    Ref,
}

impl SlotTy {
    /// The representation of a slot of static type `ty`.
    pub fn of(ty: NType) -> SlotTy {
        match ty {
            NType::Prim(Prim::Int) => SlotTy::Int,
            NType::Prim(Prim::Bool) => SlotTy::Bool,
            NType::Prim(Prim::Float) => SlotTy::Float,
            NType::Class(_) | NType::Array(_) | NType::Null => SlotTy::Ref,
            NType::Void => unreachable!("void payload slot"),
        }
    }
}

/// The packed-reference null sentinel in `Ref` payload slots.
pub const NULL_WORD: u64 = u64::MAX;

/// Meta-word bit marking an array.
const ARRAY_BIT: u64 = 1 << 63;

/// A runtime object reference: owning region, base word offset inside the
/// region's arena, and the allocation serial (the object's observable
/// identity, `obj@serial`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjRef {
    /// Owning region.
    pub region: u32,
    /// Base word offset within the region arena.
    pub word: u32,
    /// Allocation serial (0-based, program-wide).
    pub serial: u32,
}

/// Packs a reference for storage in a `Ref` payload slot (the inverse of
/// [`RegionHeap::unpack_ref`]).
#[inline]
pub fn pack_ref(r: ObjRef) -> u64 {
    ((r.region as u64) << 32) | r.word as u64
}

/// Encodes a value into a payload word (the inverse of
/// [`RegionHeap::decode`]).
#[inline]
pub fn encode(v: Value) -> u64 {
    match v {
        Value::Int(x) => x as u64,
        Value::Bool(x) => x as u64,
        Value::Float(x) => x.to_bits(),
        Value::Null => NULL_WORD,
        Value::Ref(r) => pack_ref(r),
        Value::Unit => unreachable!("unit payload store"),
    }
}

#[derive(Debug)]
struct Arena {
    /// The region id this arena backs.
    id: u32,
    /// Stats-model bytes currently accounted to this region.
    bytes: usize,
    words: Vec<u64>,
}

/// Upper bound on recycled arena word buffers kept in the free pool.
/// Region nesting in practice is shallow (one letreg per frame plus the
/// call spine), so a small pool captures nearly all reuse while bounding
/// the memory retained by a one-off burst of deep nesting.
const POOL_LIMIT: usize = 16;

/// [`RegionHeap::slot_of`] entry of a region that has been popped.
const DEAD: u32 = u32::MAX;

/// The stack-of-arenas allocator. Region 0 is the heap and is never
/// freed.
///
/// # Examples
///
/// ```
/// use cj_runtime::heap::RegionHeap;
///
/// let mut heap = RegionHeap::new();
/// let r = heap.push();
/// heap.alloc_object(r, 0, &[r], &[7, 8]).unwrap();
/// heap.pop(r).unwrap();
/// assert!(heap.alloc_object(r, 0, &[r], &[]).is_err()); // deleted
/// assert_eq!(heap.stats().peak_live, 32);
/// ```
#[derive(Debug)]
pub struct RegionHeap {
    /// The live arenas, bottom (the heap) to top.
    live: Vec<Arena>,
    /// Per region id ever created: its index in `live`, or [`DEAD`].
    slot_of: Vec<u32>,
    live_bytes: usize,
    stats: SpaceStats,
    next_serial: u32,
    /// Word buffers of popped regions, kept (cleared, capacity intact)
    /// for the next push — letreg churn in a loop then allocates into
    /// already-warm chunks instead of growing a fresh `Vec` each
    /// iteration.
    pool: Vec<Vec<u64>>,
    chunks_reused: u64,
}

impl RegionHeap {
    /// A fresh heap with only the global heap region.
    pub fn new() -> RegionHeap {
        RegionHeap {
            live: vec![Arena {
                id: 0,
                bytes: 0,
                words: Vec::new(),
            }],
            slot_of: vec![0],
            live_bytes: 0,
            stats: SpaceStats::default(),
            next_serial: 0,
            pool: Vec::new(),
            chunks_reused: 0,
        }
    }

    /// Creates a region on top of the stack (`letreg` entry). Ids are
    /// sequential and never reused.
    pub fn push(&mut self) -> u32 {
        let id = self.slot_of.len() as u32;
        let words = match self.pool.pop() {
            Some(w) => {
                self.chunks_reused += 1;
                w
            }
            None => Vec::new(),
        };
        self.slot_of.push(self.live.len() as u32);
        self.live.push(Arena {
            id,
            bytes: 0,
            words,
        });
        self.stats.regions_created += 1;
        id
    }

    /// Deletes the top region (`letreg` exit), freeing its arena
    /// wholesale.
    ///
    /// # Errors
    ///
    /// The deleted region must be the top of the stack (lexical scoping
    /// guarantees this).
    pub fn pop(&mut self, id: u32) -> Result<(), RegionError> {
        if self.live.last().map(|a| a.id) != Some(id) {
            return Err(RegionError::NotTopOfStack(RegionId(id)));
        }
        let arena = self.live.pop().expect("top arena");
        self.slot_of[id as usize] = DEAD;
        self.live_bytes -= arena.bytes;
        // The wholesale free: every object in the region dies at once.
        // The backing chunk is recycled (cleared) rather than dropped, so
        // the dead arena is observably empty either way.
        let mut words = arena.words;
        if words.capacity() > 0 && self.pool.len() < POOL_LIMIT {
            words.clear();
            self.pool.push(words);
        }
        Ok(())
    }

    /// How many pushes were served from the recycled-chunk pool.
    pub fn chunks_reused(&self) -> u64 {
        self.chunks_reused
    }

    /// Recycled chunks currently waiting in the pool.
    pub fn pooled_chunks(&self) -> usize {
        self.pool.len()
    }

    /// Whether `region` is still live.
    #[inline]
    pub fn is_live(&self, region: u32) -> bool {
        self.slot_of[region as usize] != DEAD
    }

    /// The words of live `region` (callers check liveness first).
    #[inline]
    fn words(&self, region: u32) -> &[u64] {
        &self.live[self.slot_of[region as usize] as usize].words
    }

    /// The words of live `region`, mutably.
    #[inline]
    fn words_mut(&mut self, region: u32) -> &mut [u64] {
        &mut self.live[self.slot_of[region as usize] as usize].words
    }

    /// Current accounting.
    pub fn stats(&self) -> SpaceStats {
        self.stats
    }

    /// Accounts one allocation of `bytes` to live `region`; returns the
    /// allocation's serial and the region's arena.
    fn account(&mut self, region: u32, bytes: usize) -> Result<(u32, &mut Arena), RegionError> {
        let slot = self.slot_of[region as usize];
        if slot == DEAD {
            return Err(RegionError::DeadRegion(RegionId(region)));
        }
        let arena = &mut self.live[slot as usize];
        arena.bytes += bytes;
        self.live_bytes += bytes;
        self.stats.total_allocated += bytes;
        self.stats.objects_allocated += 1;
        if self.live_bytes > self.stats.peak_live {
            self.stats.peak_live = self.live_bytes;
        }
        let serial = self.next_serial;
        self.next_serial += 1;
        Ok((serial, arena))
    }

    /// Allocates an object of `class` with the given recorded region
    /// arguments and already-encoded field words into `region`.
    ///
    /// # Errors
    ///
    /// Allocation into a deleted region.
    pub fn alloc_object(
        &mut self,
        region: u32,
        class: u32,
        regions: &[u32],
        fields: &[u64],
    ) -> Result<ObjRef, RegionError> {
        let (serial, arena) = self.account(region, object_bytes(fields.len()))?;
        let word = arena.words.len() as u32;
        arena.words.reserve(2 + regions.len() + fields.len());
        arena.words.push(serial as u64);
        arena
            .words
            .push(class as u64 | ((regions.len() as u64) << 32) | ((fields.len() as u64) << 44));
        arena.words.extend(regions.iter().map(|&r| r as u64));
        arena.words.extend_from_slice(fields);
        Ok(ObjRef {
            region,
            word,
            serial,
        })
    }

    /// Allocates a zero-initialized primitive array of length `len`.
    ///
    /// # Errors
    ///
    /// Allocation into a deleted region.
    pub fn alloc_array(
        &mut self,
        region: u32,
        elem: Prim,
        len: usize,
    ) -> Result<ObjRef, RegionError> {
        let tag = match elem {
            Prim::Int => 0u64,
            Prim::Bool => 1,
            Prim::Float => 2,
        };
        let (serial, arena) = self.account(region, object_bytes(len))?;
        let word = arena.words.len() as u32;
        arena.words.reserve(2 + len);
        arena.words.push(serial as u64);
        arena.words.push(ARRAY_BIT | (tag << 32) | len as u64);
        // All-zero words are the typed defaults: 0, false, 0.0.
        arena.words.resize(arena.words.len() + len, 0);
        Ok(ObjRef {
            region,
            word,
            serial,
        })
    }

    #[inline]
    fn meta(&self, r: ObjRef) -> u64 {
        self.words(r.region)[r.word as usize + 1]
    }

    /// The runtime class of the object at `r` (objects only).
    #[inline]
    pub fn class_of(&self, r: ObjRef) -> u32 {
        self.meta(r) as u32
    }

    /// The `i`-th recorded region argument of the object at `r`, or the
    /// heap when the object records fewer.
    #[inline]
    pub fn region_arg(&self, r: ObjRef, i: usize) -> u32 {
        let meta = self.meta(r);
        let nregions = ((meta >> 32) & 0xfff) as usize;
        if i < nregions {
            self.words(r.region)[r.word as usize + 2 + i] as u32
        } else {
            0
        }
    }

    /// Reads field `idx` of the object at `r`.
    #[inline]
    pub fn field(&self, r: ObjRef, idx: usize) -> u64 {
        let nregions = ((self.meta(r) >> 32) & 0xfff) as usize;
        self.words(r.region)[r.word as usize + 2 + nregions + idx]
    }

    /// Writes field `idx` of the object at `r`.
    #[inline]
    pub fn set_field(&mut self, r: ObjRef, idx: usize, word: u64) {
        let nregions = ((self.meta(r) >> 32) & 0xfff) as usize;
        self.words_mut(r.region)[r.word as usize + 2 + nregions + idx] = word;
    }

    /// Length of the array at `r`.
    #[inline]
    pub fn array_len(&self, r: ObjRef) -> usize {
        self.meta(r) as u32 as usize
    }

    /// Reads element `idx` of the array at `r`; `None` out of bounds.
    #[inline]
    pub fn element(&self, r: ObjRef, idx: usize) -> Option<u64> {
        if idx >= self.array_len(r) {
            return None;
        }
        Some(self.words(r.region)[r.word as usize + 2 + idx])
    }

    /// Writes element `idx` of the array at `r`; `false` out of bounds.
    #[inline]
    pub fn set_element(&mut self, r: ObjRef, idx: usize, word: u64) -> bool {
        if idx >= self.array_len(r) {
            return false;
        }
        self.words_mut(r.region)[r.word as usize + 2 + idx] = word;
        true
    }

    /// Reconstructs an [`ObjRef`] from a packed field word. The serial is
    /// read back from the object header; a reference into a deleted
    /// region gets the sentinel serial `u32::MAX` — its arena (and with
    /// it the real serial) is gone. For *checked* programs such a
    /// reference is never reachable (Theorem 1).
    #[inline]
    pub fn unpack_ref(&self, word: u64) -> Option<ObjRef> {
        if word == NULL_WORD {
            return None;
        }
        let region = (word >> 32) as u32;
        let at = word as u32;
        let serial = if self.is_live(region) {
            self.words(region)[at as usize] as u32
        } else {
            u32::MAX
        };
        Some(ObjRef {
            region,
            word: at,
            serial,
        })
    }

    /// Decodes a payload word read from a slot of representation `ty`
    /// (the inverse of [`encode`]).
    #[inline]
    pub fn decode(&self, ty: SlotTy, word: u64) -> Value {
        match ty {
            SlotTy::Int => Value::Int(word as i64),
            SlotTy::Bool => Value::Bool(word != 0),
            SlotTy::Float => Value::Float(f64::from_bits(word)),
            SlotTy::Ref => match self.unpack_ref(word) {
                Some(r) => Value::Ref(r),
                None => Value::Null,
            },
        }
    }
}

impl Default for RegionHeap {
    fn default() -> Self {
        RegionHeap::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_follow_the_size_model() {
        let mut h = RegionHeap::new();
        let r = h.push();
        let obj = h.alloc_object(r, 3, &[r, 0], &[7, NULL_WORD]).unwrap();
        assert_eq!(h.stats().total_allocated, object_bytes(2));
        assert_eq!(h.class_of(obj), 3);
        assert_eq!(h.region_arg(obj, 0), r);
        assert_eq!(h.region_arg(obj, 1), 0);
        assert_eq!(h.region_arg(obj, 9), 0, "missing regions default to heap");
        assert_eq!(h.field(obj, 0), 7);
        h.set_field(obj, 1, 9);
        assert_eq!(h.field(obj, 1), 9);
        h.pop(r).unwrap();
        assert!(!h.is_live(r));
        assert_eq!(h.stats().peak_live, object_bytes(2));
        // Popping frees wholesale: a fresh region reuses no accounting.
        let r2 = h.push();
        assert_eq!(h.pop(r2), Ok(()));
        assert_eq!(h.stats().regions_created, 2);
    }

    #[test]
    fn peak_tracks_maximum_live() {
        let mut h = RegionHeap::new();
        let a = h.push();
        h.alloc_array(a, Prim::Int, 10).unwrap(); // 96 bytes
        h.pop(a).unwrap();
        let b = h.push();
        h.alloc_array(b, Prim::Int, 6).unwrap(); // 64 bytes
        h.pop(b).unwrap();
        let s = h.stats();
        assert_eq!(s.total_allocated, 160);
        assert_eq!(s.peak_live, 96);
        assert!((s.space_ratio() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn nested_regions_interleave_accounting() {
        let mut h = RegionHeap::new();
        h.alloc_object(0, 0, &[0], &[]).unwrap(); // 16 bytes
        let a = h.push();
        h.alloc_object(a, 0, &[a], &[1]).unwrap(); // 24 bytes
        let b = h.push();
        h.alloc_object(b, 0, &[b], &[1, 2]).unwrap(); // 32 bytes
        assert_eq!(h.live_bytes, 72);
        h.pop(b).unwrap();
        assert_eq!(h.live_bytes, 40);
        h.pop(a).unwrap();
        assert_eq!(h.live_bytes, 16, "the heap is never freed");
        assert!(h.is_live(0));
        assert_eq!(h.stats().peak_live, 72);
        assert_eq!(h.stats().regions_created, 2);
    }

    #[test]
    fn no_allocation_means_ratio_one() {
        assert_eq!(RegionHeap::new().stats().space_ratio(), 1.0);
    }

    #[test]
    fn arrays_round_trip_and_bound_check() {
        let mut h = RegionHeap::new();
        let a = h.alloc_array(0, Prim::Int, 3).unwrap();
        assert_eq!(h.array_len(a), 3);
        assert_eq!(h.element(a, 2), Some(0));
        assert!(h.set_element(a, 2, 42));
        assert_eq!(h.element(a, 2), Some(42));
        assert_eq!(h.element(a, 3), None);
        assert!(!h.set_element(a, 3, 1));
    }

    #[test]
    fn stack_discipline_and_dead_region_errors() {
        let mut h = RegionHeap::new();
        let a = h.push();
        let b = h.push();
        assert_eq!(h.pop(a), Err(RegionError::NotTopOfStack(RegionId(a))));
        h.pop(b).unwrap();
        h.pop(a).unwrap();
        assert_eq!(
            h.alloc_object(a, 0, &[a], &[]),
            Err(RegionError::DeadRegion(RegionId(a)))
        );
    }

    #[test]
    fn popped_chunks_are_recycled_bounded_and_invisible() {
        let mut h = RegionHeap::new();
        // Empty arenas contribute nothing to the pool.
        let r = h.push();
        h.pop(r).unwrap();
        assert_eq!(h.pooled_chunks(), 0);
        // A warm chunk is recycled and the next push reuses it.
        let r = h.push();
        h.alloc_object(r, 1, &[r], &[1, 2, 3]).unwrap();
        h.pop(r).unwrap();
        assert_eq!(h.pooled_chunks(), 1);
        let r2 = h.push();
        assert_eq!(h.chunks_reused(), 1);
        assert_eq!(h.pooled_chunks(), 0);
        // The recycled chunk starts logically empty: first allocation
        // lands at word 0 with fresh accounting, as with a new Vec.
        let obj = h.alloc_object(r2, 2, &[r2], &[9]).unwrap();
        assert_eq!(obj.word, 0);
        assert_eq!(h.field(obj, 0), 9);
        h.pop(r2).unwrap();
        // The pool never grows past its bound.
        let mut held = Vec::new();
        for _ in 0..POOL_LIMIT + 8 {
            let r = h.push();
            h.alloc_object(r, 1, &[r], &[0]).unwrap();
            held.push(r);
        }
        for r in held.into_iter().rev() {
            h.pop(r).unwrap();
        }
        assert!(h.pooled_chunks() <= POOL_LIMIT);
    }

    /// Ids are never reused and a popped id stays dead, however many
    /// regions later take over its stack slot and its recycled chunk.
    #[test]
    fn dangling_detection_stays_exact_after_heavy_churn() {
        let mut h = RegionHeap::new();
        let outer = h.push();
        let kept = h.alloc_object(outer, 2, &[outer], &[11]).unwrap();
        let r = h.push();
        let obj = h.alloc_object(r, 1, &[r], &[5]).unwrap();
        let word = pack_ref(obj);
        h.pop(r).unwrap();
        let mut last = r;
        for k in 0..10 * POOL_LIMIT {
            let id = h.push();
            assert_eq!(id, last + 1, "ids stay sequential");
            h.alloc_object(id, 1, &[id], &[k as u64]).unwrap();
            h.pop(id).unwrap();
            last = id;
        }
        assert!(!h.is_live(r));
        assert_eq!(h.unpack_ref(word).unwrap().serial, u32::MAX);
        assert_eq!(
            h.alloc_object(r, 1, &[r], &[]),
            Err(RegionError::DeadRegion(RegionId(r)))
        );
        assert_eq!(h.pop(r), Err(RegionError::NotTopOfStack(RegionId(r))));
        assert_eq!(h.push(), last + 1);
        // The region below the churn is untouched.
        assert!(h.is_live(outer));
        assert_eq!(h.field(kept, 0), 11);
        assert_eq!(h.unpack_ref(pack_ref(kept)), Some(kept));
    }

    #[test]
    fn values_round_trip_through_payload_words() {
        let mut h = RegionHeap::new();
        let r = h.push();
        let obj = h.alloc_object(r, 1, &[r], &[]).unwrap();
        for (ty, v) in [
            (SlotTy::Int, Value::Int(-5)),
            (SlotTy::Bool, Value::Bool(true)),
            (SlotTy::Float, Value::Float(2.5)),
            (SlotTy::Ref, Value::Null),
            (SlotTy::Ref, Value::Ref(obj)),
        ] {
            assert_eq!(h.decode(ty, encode(v)), v);
        }
        let word = encode(Value::Ref(obj));
        h.pop(r).unwrap();
        let dangling = h.unpack_ref(word).unwrap();
        assert_eq!(dangling.serial, u32::MAX, "dead region hides the serial");
    }
}
