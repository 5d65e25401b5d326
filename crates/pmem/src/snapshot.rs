//! Crash images.
//!
//! Built around one sharing primitive: an identity-tagged, immutable
//! [`BaseImage`]. Every pool sits on one: a new pool on the process-wide
//! all-zero image of its size, a pool reset to a crash image on that
//! image's (a checkpoint is one more crash image, on a base of its own).
//! Crash images captured from a pool are *copy-on-write* — an `Arc` of the
//! base plus a sparse overlay of the granules written since — instead of a
//! pool-sized byte clone per candidate.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::image::GRANULE;
use crate::PmemError;

/// Issues process-unique [`BaseImage`] ids. Never reused (unlike `Arc`
/// pointer addresses), so an id equality check can never confuse two
/// different images — validation caches key on it.
static NEXT_BASE_ID: AtomicU64 = AtomicU64::new(1);

/// An immutable byte image with a process-unique identity.
#[derive(Debug)]
pub(crate) struct BaseImage {
    id: u64,
    bytes: Vec<u8>,
}

impl BaseImage {
    pub(crate) fn new(bytes: Vec<u8>) -> Arc<Self> {
        Arc::new(BaseImage {
            id: NEXT_BASE_ID.fetch_add(1, Ordering::Relaxed),
            bytes,
        })
    }

    /// The process-wide all-zero image of `size` bytes: the base every
    /// new pool starts on. One per size, kept for the life of the process,
    /// so captures of equal crash states from different new pools share a
    /// base id (and a verdict-cache key). The zeroed allocation is never
    /// written, so its pages stay unbacked.
    pub(crate) fn zeroed(size: usize) -> Arc<Self> {
        static ZEROED: OnceLock<Mutex<Vec<Arc<BaseImage>>>> = OnceLock::new();
        let mut all = ZEROED.get_or_init(Mutex::default).lock();
        if let Some(base) = all.iter().find(|b| b.bytes.len() == size) {
            return Arc::clone(base);
        }
        let base = BaseImage::new(vec![0; size]);
        all.push(Arc::clone(&base));
        base
    }

    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    pub(crate) fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// The bytes that survive a crash: the persistent image at the crash point.
///
/// PMRace duplicates the mmapped pool file at each detected crash point
/// (§4.4); a `CrashImage` is that duplicate. Recovery code runs against a
/// [`Pool`](crate::Pool) rebuilt from it via
/// [`Pool::from_crash_image`](crate::Pool::from_crash_image), or against a
/// recycled pool reset to it with
/// [`Pool::restore_crash_image`](crate::Pool::restore_crash_image).
///
/// Representation: a shared immutable base plus a sorted sparse overlay of
/// granule-sized chunks. Images captured from a pool share the base it
/// sits on (the image it was last reset to — a checkpoint's, say — or the
/// all-zero image of a new pool) and carry only the
/// granules written since; [`CrashImage::from_bytes`] wraps a dense byte
/// vector as its own base with an empty overlay, and a capture whose dirty
/// set exceeds half the pool is dense too. Read semantics are byte-identical
/// either way; dense bytes are materialized lazily (once) only when a
/// caller needs a contiguous slice.
#[derive(Debug, Clone)]
pub struct CrashImage {
    base: Arc<BaseImage>,
    /// `(byte offset, chunk)` patches over `base`, sorted by offset; every
    /// offset is granule-aligned and unique. Chunks overlapping the image
    /// end are zero-padded past it.
    overlay: Vec<(u64, [u8; GRANULE])>,
    /// Lazily materialized dense bytes (base + overlay), so `bytes()` and
    /// `read()` can keep returning plain slices.
    dense: OnceLock<Vec<u8>>,
}

impl CrashImage {
    /// Wrap raw persistent bytes as a crash image.
    #[must_use]
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        CrashImage {
            base: BaseImage::new(bytes),
            overlay: Vec::new(),
            dense: OnceLock::new(),
        }
    }

    /// The image of a newly formatted pool of `size` bytes: all zero, on
    /// the process-wide all-zero base every [`Pool::new`](crate::Pool::new)
    /// sits on, with no overlay. Resetting a pool to it with
    /// [`Pool::restore_crash_image`](crate::Pool::restore_crash_image)
    /// leaves the state `Pool::new` builds, without paying the pool's
    /// initialization cost again.
    #[must_use]
    pub fn formatted(size: usize) -> Self {
        CrashImage {
            base: BaseImage::zeroed(size),
            overlay: Vec::new(),
            dense: OnceLock::new(),
        }
    }

    /// Build a copy-on-write image: `base` patched by `overlay`, which must
    /// be sorted by (granule-aligned) offset with unique offsets.
    pub(crate) fn from_overlay(base: Arc<BaseImage>, overlay: Vec<(u64, [u8; GRANULE])>) -> Self {
        debug_assert!(overlay.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(overlay.iter().all(|&(off, _)| off % GRANULE as u64 == 0));
        CrashImage {
            base,
            overlay,
            dense: OnceLock::new(),
        }
    }

    /// The shared base under the overlay.
    pub(crate) fn base(&self) -> &Arc<BaseImage> {
        &self.base
    }

    /// The sorted granule patches over [`CrashImage::base`].
    pub(crate) fn overlay(&self) -> &[(u64, [u8; GRANULE])] {
        &self.overlay
    }

    /// Image size in bytes.
    #[must_use]
    pub fn size(&self) -> usize {
        self.base.bytes.len()
    }

    /// Number of overlay bytes carried on top of the shared base (`0` for a
    /// dense image).
    #[must_use]
    pub fn overlay_bytes(&self) -> usize {
        self.overlay.len() * GRANULE
    }

    /// Content identity for verdict memoization: `(base id, overlay hash)`.
    /// Two images with equal keys hold identical logical bytes (base ids
    /// are never reused and overlay hashes cover offsets and contents);
    /// unequal keys say nothing.
    #[must_use]
    pub fn cache_key(&self) -> (u64, u64) {
        // FNV-1a over the overlay entries, offset then chunk.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for &(off, chunk) in &self.overlay {
            off.to_le_bytes().into_iter().for_each(&mut eat);
            chunk.into_iter().for_each(&mut eat);
        }
        (self.base.id, h)
    }

    /// The surviving bytes (materializes a dense copy once for overlay
    /// images; shared-base images with no overlay borrow the base).
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        if self.overlay.is_empty() {
            return &self.base.bytes;
        }
        self.dense.get_or_init(|| {
            let mut bytes = self.base.bytes.clone();
            let size = bytes.len();
            for &(off, chunk) in &self.overlay {
                let start = off as usize;
                let n = GRANULE.min(size.saturating_sub(start));
                bytes[start..start + n].copy_from_slice(&chunk[..n]);
            }
            bytes
        })
    }

    /// Read a little-endian `u64` at `off`.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] past the image end.
    pub fn load_u64(&self, off: u64) -> Result<u64, PmemError> {
        let start = off as usize;
        let end = start.checked_add(8).filter(|&e| e <= self.size());
        let Some(end) = end else {
            return Err(PmemError::OutOfBounds {
                off,
                len: 8,
                pool_size: self.size(),
            });
        };
        if !self.overlay.is_empty() && off.is_multiple_of(GRANULE as u64) {
            // Aligned fast path: one binary search, no materialization.
            return Ok(match self.overlay.binary_search_by_key(&off, |e| e.0) {
                Ok(i) => u64::from_le_bytes(self.overlay[i].1),
                Err(_) => u64::from_le_bytes(
                    self.base.bytes[start..end]
                        .try_into()
                        .expect("8-byte slice"),
                ),
            });
        }
        Ok(u64::from_le_bytes(
            self.bytes()[start..end].try_into().expect("8-byte slice"),
        ))
    }

    /// Read `len` bytes at `off`.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] past the image end.
    pub fn read(&self, off: u64, len: usize) -> Result<&[u8], PmemError> {
        let start = off as usize;
        let end = start.checked_add(len).filter(|&e| e <= self.size());
        match end {
            Some(end) => Ok(&self.bytes()[start..end]),
            None => Err(PmemError::OutOfBounds {
                off,
                len,
                pool_size: self.size(),
            }),
        }
    }

    /// Persist the image to a file (the paper's duplicated pool file).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the filesystem.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.bytes())
    }

    /// Load an image previously written with [`CrashImage::save`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the filesystem.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        Ok(CrashImage::from_bytes(std::fs::read(path)?))
    }
}

/// Equality is over the *logical* bytes: a COW image equals the eager dense
/// copy of the same crash point regardless of representation.
impl PartialEq for CrashImage {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.base, &other.base) && self.overlay == other.overlay {
            return true;
        }
        self.bytes() == other.bytes()
    }
}

impl Eq for CrashImage {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_image_reads() {
        let mut b = vec![0u8; 32];
        b[8..16].copy_from_slice(&12345u64.to_le_bytes());
        let img = CrashImage::from_bytes(b);
        assert_eq!(img.load_u64(8).unwrap(), 12345);
        assert_eq!(img.read(8, 8).unwrap(), &12345u64.to_le_bytes());
        assert!(img.load_u64(32).is_err());
        assert!(img.read(30, 4).is_err());
    }

    #[test]
    fn save_open_roundtrip() {
        let img = CrashImage::from_bytes(vec![9u8; 64]);
        let dir = std::env::temp_dir().join("pmrace-pmem-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("img-{}.pool", std::process::id()));
        img.save(&path).unwrap();
        let back = CrashImage::open(&path).unwrap();
        assert_eq!(img, back);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn overlay_image_matches_dense_patch() {
        let base = BaseImage::new((0u8..64).collect());
        let mut dense = base.bytes().to_vec();
        dense[16..24].copy_from_slice(&7u64.to_le_bytes());
        dense[40..48].copy_from_slice(&9u64.to_le_bytes());
        let cow = CrashImage::from_overlay(
            Arc::clone(&base),
            vec![(16, 7u64.to_le_bytes()), (40, 9u64.to_le_bytes())],
        );
        let eager = CrashImage::from_bytes(dense.clone());
        assert_eq!(cow, eager, "logical-byte equality across representations");
        assert_eq!(cow.bytes(), &dense[..]);
        assert_eq!(cow.load_u64(16).unwrap(), 7);
        assert_eq!(
            cow.load_u64(8).unwrap(),
            u64::from_le_bytes(dense[8..16].try_into().unwrap())
        );
        // Misaligned load crosses an overlay boundary.
        assert_eq!(
            cow.load_u64(12).unwrap(),
            u64::from_le_bytes(dense[12..20].try_into().unwrap())
        );
        assert_eq!(cow.read(38, 6).unwrap(), &dense[38..44]);
        assert_eq!(cow.overlay_bytes(), 16);
        assert!(cow.load_u64(57).is_err());
    }

    #[test]
    fn cache_keys_separate_bases_and_overlays() {
        let base = BaseImage::new(vec![0u8; 64]);
        let a = CrashImage::from_overlay(Arc::clone(&base), vec![(0, [1; 8])]);
        let b = CrashImage::from_overlay(Arc::clone(&base), vec![(0, [2; 8])]);
        let c = CrashImage::from_overlay(Arc::clone(&base), vec![(0, [1; 8])]);
        assert_ne!(a.cache_key(), b.cache_key());
        assert_eq!(a.cache_key(), c.cache_key());
        let other_base = CrashImage::from_bytes(vec![0u8; 64]);
        assert_ne!(a.cache_key().0, other_base.cache_key().0);
    }
}
