//! Spec fingerprinting: the cache key of the architecture cache.
//!
//! The fingerprint is a 64-bit FNV-1a hash of the *canonical JSON* of
//! the submission's semantic inputs: the resource library, the system
//! specification, the portfolio size and the reconfiguration flag.
//! Canonical JSON here means the vendored serializer's compact output of
//! the object `{"payload": .., "portfolio": .., "reconfiguration": ..}`
//! — struct fields serialize in declaration order and maps preserve
//! insertion order, so the byte string (and therefore the hash) is
//! stable across runs, platforms and `--jobs` values. The bytes are
//! hashed as the serializer streams them: no tree or string of the
//! canonical form is ever built. Two submissions collide on a
//! fingerprint exactly when synthesis would be handed identical inputs,
//! which is what makes returning the cached winner sound: synthesis is
//! deterministic in those inputs.

use serde::{Serialize, Sink};

use crate::dto::SpecPayload;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running 64-bit FNV-1a hash over the bytes written into it.
struct Fnv1a(u64);

impl std::io::Write for Fnv1a {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The fingerprinted object: the submission's semantic inputs.
struct CacheKey<'a> {
    payload: &'a SpecPayload,
    portfolio: usize,
    reconfiguration: bool,
}

impl Serialize for CacheKey<'_> {
    fn serialize<S: Sink>(&self, sink: &mut S) -> Result<(), S::Error> {
        sink.begin_map()?;
        sink.key("payload")?;
        self.payload.serialize(sink)?;
        sink.key("portfolio")?;
        sink.u64(self.portfolio as u64)?;
        sink.key("reconfiguration")?;
        sink.bool(self.reconfiguration)?;
        sink.end_map()
    }
}

/// Computes the spec fingerprint (16 hex digits) of a submission.
///
/// # Errors
///
/// Propagates a serialization failure of the payload (non-finite floats
/// in the specification) as the serializer's error message.
pub fn fingerprint(
    payload: &SpecPayload,
    portfolio: usize,
    reconfiguration: bool,
) -> Result<String, String> {
    let key = CacheKey {
        payload,
        portfolio,
        reconfiguration,
    };
    let mut hash = Fnv1a(FNV_OFFSET);
    serde_json::to_writer(&mut hash, &key).map_err(|e| e.to_string())?;
    Ok(format!("{:016x}", hash.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crusade_workloads::motivating_example;

    #[test]
    fn fingerprint_is_stable_and_input_sensitive() {
        let (lib, spec) = motivating_example();
        let payload = SpecPayload {
            library: lib,
            spec: spec.clone(),
        };
        let a = fingerprint(&payload, 4, true).unwrap();
        let b = fingerprint(&payload, 4, true).unwrap();
        assert_eq!(a, b, "same inputs must fingerprint identically");
        assert_eq!(a.len(), 16);

        let c = fingerprint(&payload, 8, true).unwrap();
        assert_ne!(a, c, "portfolio size is part of the key");
        let d = fingerprint(&payload, 4, false).unwrap();
        assert_ne!(a, d, "reconfiguration flag is part of the key");
    }
}
