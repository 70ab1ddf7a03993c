//! Object layout and access on top of [`NodeMemory`].
//!
//! An object reference is the address of its header (see [`crate::layout`]).
//! Which data words hold pointers is fixed at allocation time and recorded in
//! the segment's reference-map; the accessors here enforce that split —
//! writing a pointer into a non-pointer slot (or vice versa) is a
//! [`BmxError::RefMapMismatch`], the reproduction's equivalent of the paper's
//! compiler-enforced write instrumentation.

use bmx_common::{Addr, BmxError, Oid, Result, SharedWords};

use crate::layout::{self, ObjFlags, HEADER_WORDS};
use crate::memory::{MappedSegment, NodeMemory};

/// Decoded header of one object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjectView {
    /// The object's address (header start).
    pub addr: Addr,
    /// Data size in words (header excluded).
    pub size: u64,
    /// Stable object id.
    pub oid: Oid,
    /// Header flags.
    pub flags: ObjFlags,
    /// Forwarding address left by a collector copy, or null.
    pub forwarding: Addr,
}

impl ObjectView {
    /// Total footprint in words, header included.
    pub fn footprint(&self) -> u64 {
        HEADER_WORDS + self.size
    }

    /// Returns `true` if the object has been copied and forwards elsewhere.
    pub fn is_forwarded(&self) -> bool {
        self.flags.contains(ObjFlags::FORWARDED)
    }

    /// Address of data word `field`.
    pub fn field_addr(&self, field: u64) -> Addr {
        self.addr.add_words(HEADER_WORDS + field)
    }
}

/// Bump-allocates an object with `data_words` data words inside `seg`.
///
/// `ref_fields` lists the field indices that will hold pointers; they are
/// recorded in the segment's reference-map. The caller supplies the stable
/// `oid` (the integrated platform derives it from a per-node counter).
/// Returns the new object's address. All data words start as zero / null.
pub fn alloc_in_segment(
    seg: &mut MappedSegment,
    oid: Oid,
    data_words: u64,
    ref_fields: &[u64],
) -> Result<Addr> {
    let need = HEADER_WORDS + data_words;
    if seg.free_words() < need {
        return Err(BmxError::OutOfMemory {
            bunch: seg.info.bunch,
            words: data_words,
        });
    }
    for &f in ref_fields {
        if f >= data_words {
            return Err(BmxError::FieldOutOfBounds {
                addr: seg.info.base.add_words(seg.alloc_cursor),
                field: f,
                size: data_words,
            });
        }
    }
    let start = seg.alloc_cursor;
    seg.alloc_cursor += need;
    let addr = seg.info.base.add_words(start);
    seg.words[start as usize] = layout::pack_header0(data_words, ObjFlags::default());
    seg.words[start as usize + 1] = oid.0;
    seg.words[start as usize + 2] = Addr::NULL.0;
    // Data words were either never used or belong to a reused from-space;
    // clear them and the stale map bits of the footprint.
    for w in &mut seg.words[(start + HEADER_WORDS) as usize..(start + need) as usize] {
        *w = 0;
    }
    for i in start..start + need {
        seg.ref_map.clear(i as usize);
        if i != start {
            seg.object_map.clear(i as usize);
        }
    }
    seg.object_map.set(start as usize);
    for &f in ref_fields {
        seg.ref_map.set((start + HEADER_WORDS + f) as usize);
    }
    Ok(addr)
}

/// Reads and decodes the header of the object at `addr`.
///
/// Fails with [`BmxError::NotAnObject`] if the object-map has no header bit
/// at `addr`.
pub fn view(mem: &NodeMemory, addr: Addr) -> Result<ObjectView> {
    let (seg, off) = mem.resolve(addr)?;
    if !seg.object_map.get(off as usize) {
        return Err(BmxError::NotAnObject { addr });
    }
    Ok(view_in(seg, off))
}

/// Decodes the header at word offset `off` of a segment already in hand,
/// without resolving an address. The caller guarantees that the
/// object-map has a header bit at `off`.
pub fn view_in(seg: &MappedSegment, off: u64) -> ObjectView {
    let i = off as usize;
    let h0 = seg.words[i];
    ObjectView {
        addr: seg.info.base.add_words(off),
        size: layout::header0_size(h0),
        oid: Oid(seg.words[i + 1]),
        flags: layout::header0_flags(h0),
        forwarding: Addr(seg.words[i + 2]),
    }
}

fn field_slot(mem: &NodeMemory, addr: Addr, field: u64) -> Result<(ObjectView, Addr, bool)> {
    let v = view(mem, addr)?;
    if field >= v.size {
        return Err(BmxError::FieldOutOfBounds {
            addr,
            field,
            size: v.size,
        });
    }
    let slot = v.field_addr(field);
    let (seg, off) = mem.resolve(slot)?;
    Ok((v, slot, seg.ref_map.get(off as usize)))
}

/// Reads data word `field` of the object at `addr` (pointer or not).
pub fn read_field(mem: &NodeMemory, addr: Addr, field: u64) -> Result<u64> {
    let (_, slot, _) = field_slot(mem, addr, field)?;
    mem.read_word(slot)
}

/// Reads pointer field `field` of the object at `addr`.
///
/// Fails with [`BmxError::RefMapMismatch`] if the slot is not a pointer slot.
pub fn read_ref_field(mem: &NodeMemory, addr: Addr, field: u64) -> Result<Addr> {
    let (_, slot, is_ref) = field_slot(mem, addr, field)?;
    if !is_ref {
        return Err(BmxError::RefMapMismatch { addr, field });
    }
    Ok(Addr(mem.read_word(slot)?))
}

/// Writes a non-pointer value into data word `field`.
///
/// Fails with [`BmxError::RefMapMismatch`] if the slot is a pointer slot.
pub fn write_data_field(mem: &mut NodeMemory, addr: Addr, field: u64, value: u64) -> Result<()> {
    let (_, slot, is_ref) = field_slot(mem, addr, field)?;
    if is_ref {
        return Err(BmxError::RefMapMismatch { addr, field });
    }
    mem.write_word(slot, value)
}

/// Writes a pointer into pointer slot `field` (no barrier — the write
/// barrier lives in the platform layer, which calls this after its
/// bookkeeping).
///
/// Fails with [`BmxError::RefMapMismatch`] if the slot is not a pointer slot.
pub fn write_ref_field(mem: &mut NodeMemory, addr: Addr, field: u64, target: Addr) -> Result<()> {
    let (_, slot, is_ref) = field_slot(mem, addr, field)?;
    if !is_ref {
        return Err(BmxError::RefMapMismatch { addr, field });
    }
    mem.write_word(slot, target.0)
}

/// Marks the object at `addr` as forwarded to `to` (collector use).
pub fn set_forwarding(mem: &mut NodeMemory, addr: Addr, to: Addr) -> Result<()> {
    let v = view(mem, addr)?;
    let (seg, off) = mem.resolve_mut(addr)?;
    seg.words[off as usize] = layout::pack_header0(v.size, v.flags.with(ObjFlags::FORWARDED));
    seg.words[off as usize + 2] = to.0;
    Ok(())
}

/// Returns `(field index, target)` for every pointer field of the object.
///
/// Scans the reference map word-parallel ([`Bitmap::ones_in`]): the trace
/// and update phases of every collection call this once per live object,
/// so the per-slot loop it replaced dominated BGC phase time on sparse
/// maps.
///
/// [`Bitmap::ones_in`]: bmx_common::Bitmap::ones_in
pub fn ref_fields(mem: &NodeMemory, addr: Addr) -> Result<Vec<(u64, Addr)>> {
    let v = view(mem, addr)?;
    let (seg, off) = mem.resolve(addr)?;
    let base = (off + HEADER_WORDS) as usize;
    let mut out = Vec::new();
    for idx in seg.ref_map.ones_in(base, base + v.size as usize) {
        out.push(((idx - base) as u64, Addr(seg.words[idx])));
    }
    Ok(out)
}

/// Copies the data words of the object at `addr` (for transfer or GC copy).
pub fn data_words(mem: &NodeMemory, addr: Addr) -> Result<Vec<u64>> {
    let v = view(mem, addr)?;
    let (seg, off) = mem.resolve(addr)?;
    let start = (off + HEADER_WORDS) as usize;
    Ok(seg.words[start..start + v.size as usize].to_vec())
}

/// Overwrites the data words of the object at `addr` (DSM install of a
/// received consistent copy).
pub fn install_data_words(mem: &mut NodeMemory, addr: Addr, data: &[u64]) -> Result<()> {
    let v = view(mem, addr)?;
    if data.len() as u64 != v.size {
        return Err(BmxError::FieldOutOfBounds {
            addr,
            field: data.len() as u64,
            size: v.size,
        });
    }
    let (seg, off) = mem.resolve_mut(addr)?;
    let start = (off + HEADER_WORDS) as usize;
    seg.words[start..start + data.len()].copy_from_slice(data);
    Ok(())
}

/// Shape and contents of an object, as shipped in DSM grants and relocation
/// installs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectImage {
    /// Stable object id.
    pub oid: Oid,
    /// Field indices that hold pointers.
    pub ref_fields: Vec<u64>,
    /// Data words (length = object size), in a refcounted slab: cloning an
    /// image (network fault duplication, retries) shares the words instead
    /// of copying them. The only memcpy is the capture itself.
    pub data: SharedWords,
}

impl ObjectImage {
    /// Captures the image of the object at `addr`.
    ///
    /// Single pass over the segment: the reference map is scanned
    /// word-parallel and the data words sliced once, instead of the two
    /// separate resolve-and-walk passes this used to take.
    pub fn capture(mem: &NodeMemory, addr: Addr) -> Result<ObjectImage> {
        let v = view(mem, addr)?;
        let (seg, off) = mem.resolve(addr)?;
        let base = (off + HEADER_WORDS) as usize;
        let end = base + v.size as usize;
        let refs: Vec<u64> = seg
            .ref_map
            .ones_in(base, end)
            .map(|idx| (idx - base) as u64)
            .collect();
        Ok(ObjectImage {
            oid: v.oid,
            ref_fields: refs,
            data: SharedWords::from(&seg.words[base..end]),
        })
    }

    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> u64 {
        16 + 8 * (self.ref_fields.len() as u64 + self.data.len() as u64)
    }
}

/// Materializes an object at a specific address (not bump-allocated).
///
/// Used when a node installs a replica it received (DSM grant into an
/// address the node never allocated itself) or applies a relocation. Any
/// previous contents of the footprint are overwritten and the maps updated.
/// The segment's allocation cursor is advanced past the object if needed, so
/// local bump allocation can never collide with installed replicas.
pub fn install_object_at(mem: &mut NodeMemory, addr: Addr, image: &ObjectImage) -> Result<()> {
    let size = image.data.len() as u64;
    for &f in &image.ref_fields {
        if f >= size {
            return Err(BmxError::FieldOutOfBounds {
                addr,
                field: f,
                size,
            });
        }
    }
    let (seg, off) = mem.resolve_mut(addr)?;
    let need = HEADER_WORDS + size;
    if off + need > seg.info.words {
        return Err(BmxError::OutOfMemory {
            bunch: seg.info.bunch,
            words: size,
        });
    }
    seg.words[off as usize] = layout::pack_header0(size, ObjFlags::default());
    seg.words[off as usize + 1] = image.oid.0;
    seg.words[off as usize + 2] = Addr::NULL.0;
    seg.words[(off + HEADER_WORDS) as usize..(off + need) as usize].copy_from_slice(&image.data);
    seg.ref_map.clear_range(off as usize, (off + need) as usize);
    seg.object_map
        .clear_range(off as usize + 1, (off + need) as usize);
    seg.object_map.set(off as usize);
    for &f in &image.ref_fields {
        seg.ref_map.set((off + HEADER_WORDS + f) as usize);
    }
    if seg.alloc_cursor < off + need {
        seg.alloc_cursor = off + need;
    }
    Ok(())
}

/// Addresses of every object header in the segment, ascending.
pub fn objects_in(seg: &MappedSegment) -> Vec<Addr> {
    seg.object_offsets()
        .iter()
        .map(|&o| seg.info.base.add_words(o))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Protection, SegmentServer};
    use bmx_common::NodeId;

    fn setup() -> (NodeMemory, crate::server::SegmentInfo) {
        let mut srv = SegmentServer::new(128);
        let b = srv.create_bunch(NodeId(0), Protection::default());
        let info = srv.alloc_segment(b).unwrap();
        let mut mem = NodeMemory::new(NodeId(0));
        mem.map_segment(info);
        (mem, info)
    }

    fn alloc(
        mem: &mut NodeMemory,
        info: &crate::server::SegmentInfo,
        oid: u64,
        size: u64,
        refs: &[u64],
    ) -> Addr {
        let seg = mem.segment_mut(info.id).unwrap();
        alloc_in_segment(seg, Oid(oid), size, refs).unwrap()
    }

    #[test]
    fn alloc_and_view() {
        let (mut mem, info) = setup();
        let a = alloc(&mut mem, &info, 1, 4, &[0, 2]);
        let v = view(&mem, a).unwrap();
        assert_eq!(v.size, 4);
        assert_eq!(v.oid, Oid(1));
        assert!(!v.is_forwarded());
        assert_eq!(v.forwarding, Addr::NULL);
        assert_eq!(v.footprint(), 7);
    }

    #[test]
    fn consecutive_allocations_do_not_overlap() {
        let (mut mem, info) = setup();
        let a = alloc(&mut mem, &info, 1, 4, &[]);
        let b = alloc(&mut mem, &info, 2, 2, &[]);
        assert_eq!(b, a.add_words(HEADER_WORDS + 4));
        let objs = objects_in(mem.segment(info.id).unwrap());
        assert_eq!(objs, vec![a, b]);
    }

    #[test]
    fn field_access_respects_ref_map() {
        let (mut mem, info) = setup();
        let a = alloc(&mut mem, &info, 1, 3, &[1]);
        // Field 1 is a pointer slot, fields 0 and 2 are data slots.
        write_data_field(&mut mem, a, 0, 99).unwrap();
        write_ref_field(&mut mem, a, 1, Addr(0x4040)).unwrap();
        assert_eq!(read_field(&mem, a, 0).unwrap(), 99);
        assert_eq!(read_ref_field(&mem, a, 1).unwrap(), Addr(0x4040));
        assert!(matches!(
            write_ref_field(&mut mem, a, 0, Addr(1)),
            Err(BmxError::RefMapMismatch { .. })
        ));
        assert!(matches!(
            write_data_field(&mut mem, a, 1, 5),
            Err(BmxError::RefMapMismatch { .. })
        ));
        assert!(matches!(
            read_ref_field(&mem, a, 2),
            Err(BmxError::RefMapMismatch { .. })
        ));
    }

    #[test]
    fn out_of_bounds_field_rejected() {
        let (mut mem, info) = setup();
        let a = alloc(&mut mem, &info, 1, 2, &[]);
        assert!(matches!(
            read_field(&mem, a, 2),
            Err(BmxError::FieldOutOfBounds { .. })
        ));
    }

    #[test]
    fn ref_fields_enumerates_pointers() {
        let (mut mem, info) = setup();
        let a = alloc(&mut mem, &info, 1, 5, &[0, 3]);
        write_ref_field(&mut mem, a, 0, Addr(0x100)).unwrap();
        write_ref_field(&mut mem, a, 3, Addr(0x200)).unwrap();
        assert_eq!(
            ref_fields(&mem, a).unwrap(),
            vec![(0, Addr(0x100)), (3, Addr(0x200))]
        );
    }

    #[test]
    fn forwarding_round_trip() {
        let (mut mem, info) = setup();
        let a = alloc(&mut mem, &info, 1, 1, &[]);
        set_forwarding(&mut mem, a, Addr(0xF00)).unwrap();
        let v = view(&mem, a).unwrap();
        assert!(v.is_forwarded());
        assert_eq!(v.forwarding, Addr(0xF00));
        assert_eq!(v.size, 1, "size survives the flag update");
    }

    #[test]
    fn data_words_transfer() {
        let (mut mem, info) = setup();
        let a = alloc(&mut mem, &info, 1, 3, &[2]);
        write_data_field(&mut mem, a, 0, 11).unwrap();
        write_ref_field(&mut mem, a, 2, Addr(0x42 * 8)).unwrap();
        let words = data_words(&mem, a).unwrap();
        assert_eq!(words, vec![11, 0, 0x42 * 8]);
        install_data_words(&mut mem, a, &[7, 8, 9]).unwrap();
        assert_eq!(read_field(&mem, a, 0).unwrap(), 7);
        assert!(install_data_words(&mut mem, a, &[1]).is_err());
    }

    #[test]
    fn exhausting_a_segment_fails_cleanly() {
        let (mut mem, info) = setup();
        // 128-word segment, each object needs 3 + 10 words.
        let seg = mem.segment_mut(info.id).unwrap();
        let mut count = 0;
        while alloc_in_segment(seg, Oid(count), 10, &[]).is_ok() {
            count += 1;
        }
        assert_eq!(count, 128 / 13);
        assert!(matches!(
            alloc_in_segment(seg, Oid(99), 10, &[]),
            Err(BmxError::OutOfMemory { .. })
        ));
        // A smaller object may still fit.
        assert!(alloc_in_segment(seg, Oid(100), 1, &[]).is_ok());
    }

    #[test]
    fn view_rejects_non_object_addresses() {
        let (mut mem, info) = setup();
        let a = alloc(&mut mem, &info, 1, 4, &[]);
        assert!(matches!(
            view(&mem, a.add_words(1)),
            Err(BmxError::NotAnObject { .. })
        ));
    }

    #[test]
    fn invalid_ref_field_index_rejected_at_alloc() {
        let (mut mem, info) = setup();
        let seg = mem.segment_mut(info.id).unwrap();
        assert!(matches!(
            alloc_in_segment(seg, Oid(1), 2, &[2]),
            Err(BmxError::FieldOutOfBounds { .. })
        ));
    }

    #[test]
    fn image_capture_and_install_round_trip() {
        let (mut mem, info) = setup();
        let a = alloc(&mut mem, &info, 7, 4, &[1, 3]);
        write_data_field(&mut mem, a, 0, 123).unwrap();
        write_ref_field(&mut mem, a, 1, Addr(0x5550)).unwrap();
        let img = ObjectImage::capture(&mem, a).unwrap();
        assert_eq!(img.oid, Oid(7));
        assert_eq!(img.ref_fields, vec![1, 3]);
        assert_eq!(&img.data[..], &[123, 0x5550, 0, 0]);
        // The send path never copies the words again: a clone (network
        // duplication, retry re-enqueue) aliases the captured slab.
        let dup = img.clone();
        assert!(bmx_common::SharedWords::same_slab(&img.data, &dup.data));

        // Install the image into a different node's fresh replica at the same
        // address (the single-address-space property).
        let mut mem2 = NodeMemory::new(NodeId(1));
        mem2.map_segment(info);
        install_object_at(&mut mem2, a, &img).unwrap();
        let v = view(&mem2, a).unwrap();
        assert_eq!(v.oid, Oid(7));
        assert_eq!(v.size, 4);
        assert_eq!(read_ref_field(&mem2, a, 1).unwrap(), Addr(0x5550));
        assert_eq!(read_field(&mem2, a, 0).unwrap(), 123);
        assert!(read_ref_field(&mem2, a, 0).is_err(), "field 0 is data");
        // The cursor advanced past the installed object.
        assert!(mem2.segment(info.id).unwrap().alloc_cursor >= 7);
    }

    #[test]
    fn install_rejects_overflow_and_bad_refs() {
        let (mut mem, info) = setup();
        let near_end = info.base.add_words(info.words - 2);
        let img = ObjectImage {
            oid: Oid(1),
            ref_fields: vec![],
            data: vec![0; 4].into(),
        };
        assert!(install_object_at(&mut mem, near_end, &img).is_err());
        let bad = ObjectImage {
            oid: Oid(1),
            ref_fields: vec![4],
            data: vec![0; 4].into(),
        };
        assert!(install_object_at(&mut mem, info.base, &bad).is_err());
    }

    #[test]
    fn realloc_over_reused_space_clears_stale_state() {
        let (mut mem, info) = setup();
        let a = alloc(&mut mem, &info, 1, 3, &[1]);
        write_ref_field(&mut mem, a, 1, Addr(0xAAA0)).unwrap();
        // Simulate from-space reuse: reset the cursor and clear the header
        // bit, then allocate a differently shaped object over the same spot.
        {
            let seg = mem.segment_mut(info.id).unwrap();
            let off = a.words_from(info.base) as usize;
            seg.object_map.clear(off);
            seg.alloc_cursor = off as u64;
        }
        let b = alloc(&mut mem, &info, 2, 3, &[0]);
        assert_eq!(b, a);
        let v = view(&mem, b).unwrap();
        assert_eq!(v.oid, Oid(2));
        // Field 1 was a pointer slot before; it must now be plain data.
        assert_eq!(read_field(&mem, b, 1).unwrap(), 0);
        assert!(read_ref_field(&mem, b, 1).is_err());
        assert_eq!(read_ref_field(&mem, b, 0).unwrap(), Addr::NULL);
    }
}
