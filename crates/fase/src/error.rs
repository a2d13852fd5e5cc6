//! Typed recovery errors.
//!
//! Recovery runs against bytes the process does not control — an image
//! read back from disk, or a crash capture from the fuzzer — so every
//! failure mode must surface as a value, never a panic. Conditions a
//! legitimate crash can produce (a group of which only some lines
//! landed, a stale group of an earlier FASE) are *not* errors: the log
//! rejects the group and recovers the groups before it. Errors are reserved for images that were
//! never a FASE region at all (or were corrupted beyond what the crash
//! model can produce).

/// Why a region could not be recovered as a FASE log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// The region is smaller than the advertised data area plus its
    /// log area, if it has one.
    RegionTooSmall {
        /// Bytes the region actually holds.
        region_len: usize,
        /// Bytes the data area plus any log area require.
        need: usize,
    },
    /// The log header's magic word is absent — the image was never
    /// formatted as a FASE log, or its header was corrupted.
    BadMagic {
        /// The word found where the magic should be.
        found: u64,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::RegionTooSmall { region_len, need } => write!(
                f,
                "region too small for a FASE runtime: {region_len} bytes, need {need}"
            ),
            RecoveryError::BadMagic { found } => write!(
                f,
                "region does not contain a FASE log (magic word {found:#018x})"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}
