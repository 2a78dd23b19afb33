//! Chunk-granular copy-on-write buffers: the one mechanism by which forks
//! of a decoded machine share its big arrays.
//!
//! The paper's method is many short perturbed runs from one warmed state
//! (§3.3), and a short run writes a sliver of the state it starts from — a
//! 25-transaction OLTP run touches a seventh of the 16-CPU machine's line
//! arrays even at 16-set granularity. A [`ChunkCow`] therefore makes a fork
//! pay for what it touches:
//!
//! * **owned** — a plain `Vec<T>`: what a freshly built array is, and what a
//!   uniquely held decode becomes at its first write. Access is an index.
//! * **shared** — an `Arc` of an immutable array, as the snapshot decoder
//!   builds it and as [`Clone`] hands it on (a pointer copy). Nothing has
//!   been written through this handle yet.
//! * **forked** — the shared base, plus a chunk → offset map, plus one
//!   private buffer. The first write to a chunk copies that chunk (byte
//!   exact) onto the end of the private buffer and records where; reads of
//!   unmapped chunks go straight to the base. No write ever reaches the
//!   base, so siblings, the template, and forks that outlive the template
//!   never see each other.
//!
//! Whether a shared array is uniquely held is decided **once**, at the first
//! write after a fork or restore ([`ChunkCow::begin_writes`]); from then on
//! the access path branches on the enum and touches no atomic.
//! [`ChunkCow::share`] goes the other way: it makes any array shared again
//! in place, folding a forked array's private chunks back into its base
//! when it is the base's last holder — how a live machine that keeps
//! running between forks is shared again without a whole copy. Private
//! buffers and maps come from and retire to the process's decode arena
//! ([`super::arena`]): growing fresh memory per fork costs more in page
//! faults than the copying it saves.
//!
//! The slow paths (snapshot encode, residency walks, equality) read the
//! logical contents through [`ChunkCow::pieces`] — no flattening copy.
//!
//! An array may also grow, one whole chunk of default elements at a time
//! ([`ChunkCow::append_chunk`]): how a cache array's slot storage takes
//! room for sets it fills for the first time. An owned array appends to its
//! buffer; a shared one first decides ownership like any write; a forked
//! one appends the chunk to its private buffer and maps it there, so the
//! base never grows and never sees it. [`ChunkCow::share`] folds appended
//! chunks like written ones, onto the end of the base.

use std::sync::Arc;

use super::arena::{Pooled, Recycled};

/// Map entry of a chunk that has not been written: it still reads from the
/// shared base. Private offsets are always below the array length, which
/// [`ChunkCow`]'s constructors keep below this value.
const CHUNK_UNMAPPED: u32 = u32::MAX;

/// A chunk map entry: where the chunk's private copy starts, or
/// [`CHUNK_UNMAPPED`]. A type of its own so that the arena pools chunk maps
/// apart from the `u32` slot tables: a written fork
/// of the 16-CPU machine holds up to 97 maps, which would crowd those
/// arrays out of a shared pool's buffer cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct MapEntry(u32);

#[derive(Debug)]
enum State<T: Pooled> {
    Owned(Recycled<T>),
    Shared(Arc<Recycled<T>>),
    Forked {
        base: Arc<Recycled<T>>,
        /// Per chunk: offset of its private copy in `private`, or
        /// [`CHUNK_UNMAPPED`].
        map: Recycled<MapEntry>,
        /// Written and appended chunks, in first-write order. Capacity
        /// covers the array as it was forked, rounded up to a power of two;
        /// what outgrows it grows through the arena.
        private: Recycled<T>,
    },
}

/// An array of `T` that is copied on write one chunk at a time and grows
/// only by whole chunks; see the module docs. Every access names its chunk
/// and stays inside it.
#[derive(Debug)]
pub(crate) struct ChunkCow<T: Pooled> {
    state: State<T>,
    len: usize,
    /// Elements per chunk (the last chunk may be shorter, unless the array
    /// grows: [`ChunkCow::append_chunk`] needs whole chunks).
    chunk: usize,
}

impl<T: Pooled> ChunkCow<T> {
    /// A uniquely owned array (a freshly built one).
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero or the array is too long for the `u32`
    /// chunk map — geometries no caller builds.
    pub(crate) fn owned(buf: Vec<T>, chunk: usize) -> Self {
        assert!(chunk > 0, "a chunk holds at least one element");
        assert!(
            buf.len() < CHUNK_UNMAPPED as usize,
            "array too long for the chunk map"
        );
        ChunkCow {
            len: buf.len(),
            state: State::Owned(Recycled(buf)),
            chunk,
        }
    }

    /// An empty owned array with room for `capacity` elements, drawn from
    /// the arena, that grows by [`ChunkCow::append_chunk`].
    pub(crate) fn with_capacity(capacity: usize, chunk: usize) -> Self {
        assert!(chunk > 0, "a chunk holds at least one element");
        ChunkCow {
            len: 0,
            state: State::Owned(Recycled::with_capacity(capacity)),
            chunk,
        }
    }

    /// Turns the array into a shared one in place: what a decode does to an
    /// array that is expected to be forked, and what a warm chain does to
    /// its live machine before forking it. Clones made from here on share
    /// it, and its holder keeps it to itself only if it is still the sole
    /// holder at its first write.
    ///
    /// An owned array is wrapped (no copy). A forked array whose base no
    /// one else holds any more folds its private chunks back into the base
    /// (a copy of the chunks written or appended since the fork); if another
    /// holder still has the base, the logical contents are copied into a new
    /// one.
    pub(crate) fn share(&mut self) {
        self.state = match self.replace_state() {
            State::Owned(buf) => State::Shared(Arc::new(buf)),
            State::Forked { base, map, private } => {
                let mut flat = match Arc::try_unwrap(base) {
                    Ok(flat) => flat,
                    // Someone else still holds the base: fold into a copy.
                    Err(base) => Recycled::copy_of(&base.0, self.len),
                };
                for (c, &MapEntry(at)) in map.0.iter().enumerate() {
                    if at != CHUNK_UNMAPPED {
                        let start = c * self.chunk;
                        let n = self.chunk.min(self.len - start);
                        let chunk = &private.0[at as usize..][..n];
                        if start < flat.0.len() {
                            flat.0[start..start + n].copy_from_slice(chunk);
                        } else {
                            // Appended since the fork: chunks are mapped in
                            // index order, so this one ends the base so far.
                            flat.reserve(n);
                            flat.0.extend_from_slice(chunk);
                        }
                    }
                }
                State::Shared(Arc::new(flat))
            }
            shared => shared,
        };
    }

    /// Moves the state out, leaving an empty placeholder behind.
    fn replace_state(&mut self) -> State<T> {
        std::mem::replace(&mut self.state, State::Owned(Recycled(Vec::new())))
    }

    /// Number of elements.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been written through this handle since it was
    /// decoded or cloned from a shared array.
    pub(crate) fn is_unwritten(&self) -> bool {
        matches!(self.state, State::Shared(_))
    }

    /// The first write after a fork or restore: decides, once, whether this
    /// handle owns its array. A sole holder takes the array as its own (no
    /// copy); anyone else starts an empty overlay on the shared base.
    #[cold]
    #[inline(never)]
    fn begin_writes(&mut self) {
        self.state = match self.replace_state() {
            State::Shared(base) => match Arc::try_unwrap(base) {
                Ok(buf) => State::Owned(buf),
                Err(base) => {
                    let chunks = self.len.div_ceil(self.chunk);
                    let mut map = Recycled::with_capacity(chunks);
                    map.0.resize(chunks, MapEntry(CHUNK_UNMAPPED));
                    // Rounded up, so that an array that grows between forks
                    // (a live chain machine's slot storage) still fits the
                    // buffer its previous fork retired.
                    let private = Recycled::with_capacity(self.len.next_power_of_two());
                    State::Forked { base, map, private }
                }
            },
            written => written,
        };
    }

    /// Appends one chunk of default elements, written here, for the caller
    /// to fill through [`ChunkCow::slice_mut`]. On a forked array the chunk
    /// lives in the private buffer from the start.
    ///
    /// # Panics
    ///
    /// Panics if the array would outgrow the `u32` chunk map; debug builds
    /// also check that the array holds whole chunks.
    pub(crate) fn append_chunk(&mut self) {
        debug_assert!(
            self.len.is_multiple_of(self.chunk),
            "a growing array holds whole chunks"
        );
        assert!(
            self.len + self.chunk < CHUNK_UNMAPPED as usize,
            "array too long for the chunk map"
        );
        if self.is_unwritten() {
            self.begin_writes();
        }
        let fill = std::iter::repeat_n(T::default(), self.chunk);
        match &mut self.state {
            State::Owned(buf) => {
                buf.reserve(self.chunk);
                buf.0.extend(fill);
            }
            State::Forked { map, private, .. } => {
                map.reserve(1);
                map.0.push(MapEntry(private.0.len() as u32));
                private.reserve(self.chunk);
                private.0.extend(fill);
            }
            State::Shared(_) => unreachable!("begin_writes left the array shared"),
        }
        self.len += self.chunk;
    }

    /// Elements `[offset, offset + len)` of chunk `chunk`, for reading.
    /// Always inlined: every cache lookup takes two of these, a table
    /// entry and a slot.
    #[inline(always)]
    pub(crate) fn slice(&self, chunk: usize, offset: usize, len: usize) -> &[T] {
        let flat = chunk * self.chunk + offset;
        match &self.state {
            State::Owned(buf) => &buf.0[flat..][..len],
            State::Shared(base) => &base.0[flat..][..len],
            State::Forked { base, map, private } => match map.0[chunk].0 {
                CHUNK_UNMAPPED => &base.0[flat..][..len],
                at => &private.0[at as usize + offset..][..len],
            },
        }
    }

    /// Elements `[offset, offset + len)` of chunk `chunk`, for writing. On a
    /// forked array the first call per chunk copies the chunk in.
    #[inline(always)]
    pub(crate) fn slice_mut(&mut self, chunk: usize, offset: usize, len: usize) -> &mut [T] {
        if self.is_unwritten() {
            self.begin_writes();
        }
        let start = chunk * self.chunk;
        match &mut self.state {
            State::Owned(buf) => &mut buf.0[start + offset..][..len],
            State::Forked { base, map, private } => {
                let mut at = map.0[chunk].0;
                if at == CHUNK_UNMAPPED {
                    let end = (start + self.chunk).min(self.len);
                    at = copy_in(&base.0[start..end], private);
                    map.0[chunk] = MapEntry(at);
                }
                &mut private.0[at as usize + offset..][..len]
            }
            State::Shared(_) => unreachable!("begin_writes left the array shared"),
        }
    }

    /// The logical contents in order, as contiguous pieces: one piece for
    /// an owned or shared array, one per chunk for a forked one.
    pub(crate) fn pieces(&self) -> impl Iterator<Item = &[T]> {
        let step = match self.state {
            State::Forked { .. } => self.chunk,
            _ => self.len.max(1),
        };
        (0..self.len)
            .step_by(step)
            .enumerate()
            .map(move |(i, start)| self.slice(i, 0, step.min(self.len - start)))
    }
}

/// A forked array's first write to a chunk: copies the chunk onto the end
/// of the private buffer and returns where it starts.
#[cold]
#[inline(never)]
fn copy_in<T: Pooled>(chunk: &[T], private: &mut Recycled<T>) -> u32 {
    let at = private.0.len() as u32;
    private.reserve(chunk.len());
    private.0.extend_from_slice(chunk);
    at
}

/// A clone holds the same logical contents and shares what can be shared:
/// a shared array is a pointer copy, a forked one shares the base and copies
/// only the overlay, and an owned array — which has no shareable form —
/// is copied whole.
impl<T: Pooled> Clone for ChunkCow<T> {
    fn clone(&self) -> Self {
        let state = match &self.state {
            State::Owned(buf) => State::Owned(buf.clone()),
            State::Shared(base) => State::Shared(Arc::clone(base)),
            State::Forked { base, map, private } => State::Forked {
                base: Arc::clone(base),
                map: map.clone(),
                private: Recycled::copy_of(&private.0, self.len),
            },
        };
        ChunkCow {
            state,
            len: self.len,
            chunk: self.chunk,
        }
    }
}

/// Equality of logical contents, however they are held.
impl<T: Pooled + PartialEq> PartialEq for ChunkCow<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.chunk == other.chunk
            && (0..self.len)
                .step_by(self.chunk)
                .enumerate()
                .all(|(c, start)| {
                    let n = self.chunk.min(self.len - start);
                    self.slice(c, 0, n) == other.slice(c, 0, n)
                })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contents(cow: &ChunkCow<u32>) -> Vec<u32> {
        cow.pieces().flatten().copied().collect()
    }

    /// 10 elements in chunks of 4: two full chunks and a short one.
    fn decoded() -> ChunkCow<u32> {
        let mut cow = ChunkCow::owned((0..10).collect(), 4);
        cow.share();
        cow
    }

    #[test]
    fn sole_holder_takes_the_array_without_an_overlay() {
        let mut a = decoded();
        assert!(a.is_unwritten());
        a.slice_mut(1, 2, 1)[0] = 99;
        assert!(matches!(a.state, State::Owned(_)));
        assert_eq!(contents(&a), [0, 1, 2, 3, 4, 5, 99, 7, 8, 9]);
    }

    #[test]
    fn fork_copies_only_written_chunks_and_never_writes_the_base() {
        let template = decoded();
        let mut fork = template.clone();
        assert_eq!(fork.slice(2, 1, 1), [9]);
        fork.slice_mut(2, 1, 1)[0] = 90; // the short last chunk
        fork.slice_mut(0, 0, 2).copy_from_slice(&[10, 11]);
        fork.slice_mut(2, 0, 1)[0] = 80; // mapped already: no second copy
        let State::Forked { private, map, .. } = &fork.state else {
            panic!("a fork of a held template overlays it");
        };
        assert_eq!(private.0.len(), 2 + 4, "chunks 2 (short) and 0 only");
        assert_eq!(map.0, [2, CHUNK_UNMAPPED, 0].map(MapEntry));
        assert_eq!(contents(&fork), [10, 11, 2, 3, 4, 5, 6, 7, 80, 90]);
        assert_eq!(contents(&template), (0..10).collect::<Vec<_>>());
        assert!(template.is_unwritten());
    }

    #[test]
    fn forks_outlive_the_template_and_fork_again() {
        let template = decoded();
        let mut fork = template.clone();
        fork.slice_mut(1, 0, 1)[0] = 40;
        drop(template);
        let mut grandchild = fork.clone();
        grandchild.slice_mut(0, 3, 1)[0] = 30;
        fork.slice_mut(1, 1, 1)[0] = 50;
        assert_eq!(contents(&fork), [0, 1, 2, 3, 40, 50, 6, 7, 8, 9]);
        assert_eq!(contents(&grandchild), [0, 1, 2, 30, 40, 5, 6, 7, 8, 9]);
    }

    /// Where the array's (base) elements live.
    fn base_ptr(cow: &ChunkCow<u32>) -> *const u32 {
        match &cow.state {
            State::Owned(buf) => buf.0.as_ptr(),
            State::Shared(base) | State::Forked { base, .. } => base.0.as_ptr(),
        }
    }

    #[test]
    fn share_folds_a_forked_array_in_place_when_the_base_is_unique() {
        let template = decoded();
        let mut fork = template.clone();
        fork.slice_mut(2, 1, 1)[0] = 90; // the short last chunk
        fork.slice_mut(0, 3, 1)[0] = 30;
        let base = base_ptr(&fork);
        drop(template);
        fork.share();
        assert!(fork.is_unwritten(), "shared again");
        assert_eq!(base_ptr(&fork), base, "folded into the base, not copied");
        assert_eq!(contents(&fork), [0, 1, 2, 30, 4, 5, 6, 7, 8, 90]);
        // And it forks again like a decoded array.
        let mut child = fork.clone();
        child.slice_mut(1, 0, 1)[0] = 40;
        assert_eq!(contents(&child), [0, 1, 2, 30, 40, 5, 6, 7, 8, 90]);
        assert_eq!(contents(&fork), [0, 1, 2, 30, 4, 5, 6, 7, 8, 90]);
    }

    #[test]
    fn share_flattens_when_a_sibling_still_holds_the_base() {
        let template = decoded();
        let mut sibling = template.clone();
        sibling.slice_mut(1, 1, 1)[0] = 50;
        let mut fork = template.clone();
        fork.slice_mut(0, 0, 1)[0] = 10;
        fork.slice_mut(2, 0, 1)[0] = 80;
        fork.share();
        assert!(fork.is_unwritten());
        assert_ne!(base_ptr(&fork), base_ptr(&template), "a new base");
        assert_eq!(contents(&fork), [10, 1, 2, 3, 4, 5, 6, 7, 80, 9]);
        assert_eq!(contents(&template), (0..10).collect::<Vec<_>>());
        assert_eq!(contents(&sibling), [0, 1, 2, 3, 4, 50, 6, 7, 8, 9]);
        // Sharing an owned or an already shared array copies nothing.
        let mut owned = ChunkCow::owned((0..10).collect(), 4);
        let base = base_ptr(&owned);
        owned.share();
        owned.share();
        assert_eq!(base_ptr(&owned), base);
        assert_eq!(contents(&owned), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn appended_chunks_grow_every_state_and_fold_onto_the_base() {
        // Owned: the buffer grows in place, the new chunk default-filled.
        let mut array = ChunkCow::owned((0..8).collect(), 4);
        array.append_chunk();
        array.slice_mut(2, 1, 1)[0] = 9;
        assert_eq!(contents(&array), [0, 1, 2, 3, 4, 5, 6, 7, 0, 9, 0, 0]);
        // Shared, sole holder: the holder takes the array, then grows it.
        array.share();
        array.append_chunk();
        assert!(matches!(array.state, State::Owned(_)));
        assert_eq!(array.len(), 16);
        // Forked: the chunk is private from the start; the base never
        // grows and siblings never see it.
        array.share();
        let template = array;
        let mut fork = template.clone();
        fork.append_chunk();
        fork.slice_mut(4, 0, 1)[0] = 7;
        fork.slice_mut(0, 0, 1)[0] = 5;
        let State::Forked { map, private, .. } = &fork.state else {
            panic!("a fork of a held template overlays it");
        };
        let unmapped = MapEntry(CHUNK_UNMAPPED);
        assert_eq!(
            map.0,
            [MapEntry(4), unmapped, unmapped, unmapped, MapEntry(0)]
        );
        assert_eq!(private.0, [7, 0, 0, 0, 5, 1, 2, 3]);
        assert_eq!((template.len(), fork.len()), (16, 20));
        let want = [5, 1, 2, 3, 4, 5, 6, 7, 0, 9, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0];
        assert_eq!(contents(&fork), want);
        // Shared again: flattened while the template holds the base, folded
        // onto it once the template is gone; both fork again.
        let mut flattened = fork.clone();
        flattened.share();
        drop(template);
        fork.share();
        for array in [&mut fork, &mut flattened] {
            assert!(array.is_unwritten());
            assert_eq!(contents(array), want);
            let mut child = array.clone();
            child.append_chunk();
            child.slice_mut(5, 3, 1)[0] = 8;
            assert_eq!(contents(&child)[20..], [0, 0, 0, 8]);
            assert_eq!(contents(array), want);
        }
    }

    #[test]
    fn equality_is_of_contents_not_of_representation() {
        let template = decoded();
        let mut fork = template.clone();
        fork.slice_mut(0, 0, 1)[0] = 0; // mapped, same contents
        let owned = ChunkCow::owned((0..10).collect(), 4);
        assert!(template == fork && fork == owned && owned.clone() == template);
        fork.slice_mut(2, 1, 1)[0] = 1;
        assert!(fork != owned);
        assert!(ChunkCow::owned((0..9).collect(), 4) != owned);
    }
}
