//! Output checks: per-device digests of transmitted frames, and the
//! exact ledger `offered == tx + drops + counted loss`.

use click_core::error::{Error, Result};

/// Hash of one frame: every byte (`full`), or its length and first 64
/// bytes (cheap enough to run on every frame of a timed pass).
pub fn frame_hash(frame: &[u8], full: bool) -> u64 {
    let body = if full {
        frame
    } else {
        &frame[..frame.len().min(64)]
    };
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ frame.len() as u64;
    let mut chunks = body.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        h = (h ^ w).wrapping_mul(0x0100_0000_01B3).rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
    }
    h
}

/// An order-sensitive digest of one device's transmitted frames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    /// Chained hash state.
    pub state: u64,
    /// Frames absorbed.
    pub frames: u64,
}

impl Digest {
    /// Absorbs one frame hash.
    pub fn absorb(&mut self, h: u64) {
        self.state = (self.state ^ h)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(31);
        self.frames += 1;
    }
}

/// The per-device frame hashes of one pass, in transmit order: replaying
/// them gives the digest a phase of whole passes must produce.
#[derive(Debug, Clone, Default)]
pub struct PassHashes(pub Vec<Vec<u64>>);

impl PassHashes {
    /// The digests of `passes` back-to-back passes.
    pub fn expected(&self, passes: u64) -> Vec<Digest> {
        self.0
            .iter()
            .map(|hs| {
                let mut d = Digest::default();
                for _ in 0..passes {
                    for &h in hs {
                        d.absorb(h);
                    }
                }
                d
            })
            .collect()
    }
}

/// Fails unless every device's digest matches.
pub fn digests_match(what: &str, got: &[Digest], want: &[Digest]) -> Result<()> {
    if got == want {
        return Ok(());
    }
    Err(Error::runtime(format!(
        "{what}: transmitted frames differ from the expected ones: got {got:?}, want {want:?}"
    )))
}

/// One phase's traffic ledger.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ledger {
    /// Frames released to the router.
    pub offered: u64,
    /// Frames the sinks received.
    pub tx: u64,
    /// Frames dropped by the configuration.
    pub drops: u64,
    /// Frames the device layer counted as lost.
    pub lost: u64,
}

impl Ledger {
    /// Adds another phase's counts.
    pub fn absorb(&mut self, other: &Ledger) {
        self.offered += other.offered;
        self.tx += other.tx;
        self.drops += other.drops;
        self.lost += other.lost;
    }

    /// True when every offered frame is accounted for exactly.
    pub fn closed(&self) -> bool {
        self.offered == self.tx + self.drops + self.lost
    }

    /// Fails unless the ledger closes exactly.
    pub fn check(&self, what: &str) -> Result<()> {
        if self.closed() {
            return Ok(());
        }
        Err(Error::runtime(format!(
            "{what}: ledger does not balance: offered {} != tx {} + drops {} + lost {}",
            self.offered, self.tx, self.drops, self.lost
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive_and_replayable() {
        let hs: Vec<u64> = [b"a".as_slice(), b"bb", b"ccc"]
            .iter()
            .map(|f| frame_hash(f, true))
            .collect();
        let mut fwd = Digest::default();
        let mut rev = Digest::default();
        for &h in &hs {
            fwd.absorb(h);
        }
        for &h in hs.iter().rev() {
            rev.absorb(h);
        }
        assert_ne!(fwd, rev);
        let pass = PassHashes(vec![hs.clone()]);
        assert_eq!(pass.expected(1), vec![fwd]);
        let mut twice = fwd;
        for &h in &hs {
            twice.absorb(h);
        }
        assert_eq!(pass.expected(2), vec![twice]);
    }

    #[test]
    fn quick_hash_sees_length_and_headers_only() {
        let a = vec![7u8; 200];
        let mut b = a.clone();
        b[150] = 8;
        assert_eq!(frame_hash(&a, false), frame_hash(&b, false));
        assert_ne!(frame_hash(&a, true), frame_hash(&b, true));
        assert_ne!(frame_hash(&a, false), frame_hash(&a[..199], false));
    }

    #[test]
    fn ledger_must_balance_exactly() {
        let l = Ledger {
            offered: 10,
            tx: 7,
            drops: 2,
            lost: 1,
        };
        assert!(l.check("t").is_ok());
        let off = Ledger { offered: 11, ..l };
        assert!(off.check("t").is_err());
    }
}
