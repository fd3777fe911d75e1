//! Prefix allocation and longest-prefix-match IP→ASN mapping.
//!
//! The paper maps bot IPs to ASNs "using a commercial grade mapping dataset"
//! \[41\]. For the synthetic Internet the allocation is ours to make:
//! [`PrefixAllocator`] hands every AS one or more IPv4 prefixes sized by its
//! tier, and [`IpAsnMap`] answers lookups with longest-prefix-match
//! semantics — the same contract a whois-derived mapping provides.

use crate::graph::{AsGraph, Asn, Tier};
use crate::{Result, TopoError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An IPv4 prefix (`network/len`), network address stored host-order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Prefix {
    network: u32,
    len: u8,
}

impl Prefix {
    /// Creates a prefix, masking the network address to the prefix length.
    ///
    /// # Errors
    ///
    /// Returns [`TopoError::InvalidConfig`] when `len > 32`.
    pub fn new(network: u32, len: u8) -> Result<Self> {
        if len > 32 {
            return Err(TopoError::InvalidConfig {
                detail: format!("prefix length {len} exceeds 32"),
            });
        }
        Ok(Prefix { network: network & Self::mask(len), len })
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The (masked) network address.
    pub fn network(&self) -> u32 {
        self.network
    }

    /// The prefix length.
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Whether this is the default route `0.0.0.0/0`.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `ip` falls inside this prefix.
    pub fn contains(&self, ip: u32) -> bool {
        (ip & Self::mask(self.len)) == self.network
    }

    /// Number of addresses covered.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.len)
    }

    /// The `i`-th address in the prefix (wraps within the prefix).
    pub fn address(&self, i: u64) -> u32 {
        self.network + (i % self.size()) as u32
    }
}

impl std::fmt::Display for Prefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", format_ipv4(self.network), self.len)
    }
}

/// Formats a host-order `u32` as dotted-quad IPv4.
pub fn format_ipv4(ip: u32) -> String {
    format!("{}.{}.{}.{}", ip >> 24, (ip >> 16) & 0xff, (ip >> 8) & 0xff, ip & 0xff)
}

/// Parses dotted-quad IPv4 into a host-order `u32`.
///
/// # Errors
///
/// Returns [`TopoError::InvalidConfig`] for malformed input.
pub fn parse_ipv4(s: &str) -> Result<u32> {
    let parts: Vec<&str> = s.split('.').collect();
    if parts.len() != 4 {
        return Err(TopoError::InvalidConfig { detail: format!("bad IPv4 literal {s:?}") });
    }
    let mut out = 0u32;
    for p in parts {
        let octet: u32 = p
            .parse::<u8>()
            .map_err(|_| TopoError::InvalidConfig { detail: format!("bad IPv4 octet {p:?}") })?
            .into();
        out = (out << 8) | octet;
    }
    Ok(out)
}

/// Longest-prefix-match IP→ASN table.
///
/// # Example
///
/// ```
/// use ddos_astopo::ipmap::{IpAsnMap, Prefix};
/// use ddos_astopo::Asn;
///
/// # fn main() -> Result<(), ddos_astopo::TopoError> {
/// let mut map = IpAsnMap::new();
/// map.insert(Prefix::new(0x0a000000, 8)?, Asn(100))?;   // 10.0.0.0/8
/// map.insert(Prefix::new(0x0a010000, 16)?, Asn(200))?;  // 10.1.0.0/16 (more specific)
/// assert_eq!(map.lookup(0x0a010203), Some(Asn(200)));
/// assert_eq!(map.lookup(0x0a020304), Some(Asn(100)));
/// assert_eq!(map.lookup(0x0b000001), None);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IpAsnMap {
    /// Prefixes bucketed by length, longest first at lookup time.
    by_len: BTreeMap<u8, BTreeMap<u32, Asn>>,
}

impl IpAsnMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        IpAsnMap::default()
    }

    /// Inserts a prefix→ASN binding.
    ///
    /// # Errors
    ///
    /// Returns [`TopoError::DuplicatePrefix`] when the exact prefix is
    /// already bound (to any AS).
    pub fn insert(&mut self, prefix: Prefix, asn: Asn) -> Result<()> {
        let bucket = self.by_len.entry(prefix.len()).or_default();
        if bucket.contains_key(&prefix.network()) {
            return Err(TopoError::DuplicatePrefix {
                network: prefix.network(),
                len: prefix.len(),
            });
        }
        bucket.insert(prefix.network(), asn);
        Ok(())
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, ip: u32) -> Option<Asn> {
        for (len, bucket) in self.by_len.iter().rev() {
            let masked = ip & Prefix::mask(*len);
            if let Some(asn) = bucket.get(&masked) {
                return Some(*asn);
            }
        }
        None
    }

    /// Number of bound prefixes.
    pub fn len(&self) -> usize {
        self.by_len.values().map(|b| b.len()).sum()
    }

    /// Iterator over all `(prefix, asn)` bindings, shortest prefixes first.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, Asn)> + '_ {
        self.by_len.iter().flat_map(|(len, bucket)| {
            // `insert` stores the masked network of a valid prefix, so
            // the pair is a prefix as it stands.
            bucket.iter().map(move |(&network, asn)| (Prefix { network, len: *len }, *asn))
        })
    }

    /// Total address space (number of IPv4 addresses) bound to each AS.
    pub fn address_space_by_asn(&self) -> std::collections::BTreeMap<Asn, u64> {
        let mut out = std::collections::BTreeMap::new();
        for (prefix, asn) in self.iter() {
            *out.entry(asn).or_insert(0) += prefix.size();
        }
        out
    }

    /// Whether no prefixes are bound.
    pub fn is_empty(&self) -> bool {
        self.by_len.values().all(|b| b.is_empty())
    }
}

/// Allocates address space to every AS of a topology.
///
/// Tier-1s receive /12s, tier-2s /16s and stubs /20s, carved sequentially
/// from `10.0.0.0`-style space upward — collision-free by construction and
/// readable in debug output.
#[derive(Debug, Clone)]
pub struct PrefixAllocator {
    next: u32,
}

impl PrefixAllocator {
    /// Creates an allocator starting at the conventional `10.0.0.0`.
    pub fn new() -> Self {
        PrefixAllocator { next: 0x0a00_0000 }
    }

    /// Allocates one prefix of the given length.
    ///
    /// # Errors
    ///
    /// Returns [`TopoError::InvalidConfig`] when the space is exhausted or
    /// `len` is invalid.
    pub fn allocate(&mut self, len: u8) -> Result<Prefix> {
        if len == 0 || len > 32 {
            return Err(TopoError::InvalidConfig { detail: format!("cannot allocate a /{len}") });
        }
        let size = 1u64 << (32 - len);
        // Align up.
        let aligned = self.next.div_ceil(size as u32).saturating_mul(size as u32);
        let end = aligned as u64 + size;
        if end > u32::MAX as u64 {
            return Err(TopoError::InvalidConfig { detail: "address space exhausted".to_string() });
        }
        self.next = end as u32;
        Prefix::new(aligned, len)
    }

    /// Builds the full map and per-AS prefix table for a topology.
    ///
    /// Returns `(map, allocations)` where `allocations[asn]` lists the
    /// prefixes assigned to that AS.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures (address-space exhaustion).
    pub fn allocate_for(
        mut self,
        graph: &AsGraph,
    ) -> Result<(IpAsnMap, BTreeMap<Asn, Vec<Prefix>>)> {
        let mut map = IpAsnMap::new();
        let mut allocations: BTreeMap<Asn, Vec<Prefix>> = BTreeMap::new();
        for asn in graph.asns() {
            let tier = graph.info(asn).ok_or(TopoError::UnknownAs(asn))?.tier;
            let len = match tier {
                Tier::Tier1 => 12,
                Tier::Tier2 => 16,
                Tier::Stub => 20,
            };
            let prefix = self.allocate(len)?;
            map.insert(prefix, asn)?;
            allocations.entry(asn).or_default().push(prefix);
        }
        Ok((map, allocations))
    }
}

impl Default for PrefixAllocator {
    fn default() -> Self {
        PrefixAllocator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{TopologyConfig, TopologyGenerator};

    #[test]
    fn prefix_masks_network() {
        let p = Prefix::new(0x0a01_02ff, 16).unwrap();
        assert_eq!(p.network(), 0x0a01_0000);
        assert_eq!(p.len(), 16);
        assert_eq!(p.size(), 65_536);
        assert!(p.contains(0x0a01_ffff));
        assert!(!p.contains(0x0a02_0000));
    }

    #[test]
    fn prefix_rejects_bad_length() {
        assert!(Prefix::new(0, 33).is_err());
    }

    #[test]
    fn prefix_address_wraps() {
        let p = Prefix::new(0x0a00_0000, 30).unwrap();
        assert_eq!(p.address(0), 0x0a00_0000);
        assert_eq!(p.address(5), 0x0a00_0001);
    }

    #[test]
    fn prefix_display_and_parse_round_trip() {
        let p = Prefix::new(parse_ipv4("10.1.0.0").unwrap(), 16).unwrap();
        assert_eq!(p.to_string(), "10.1.0.0/16");
        assert_eq!(parse_ipv4("255.255.255.255").unwrap(), u32::MAX);
        assert!(parse_ipv4("10.0.0").is_err());
        assert!(parse_ipv4("10.0.0.256").is_err());
    }

    #[test]
    fn lpm_prefers_longest() {
        let mut m = IpAsnMap::new();
        m.insert(Prefix::new(0x0a00_0000, 8).unwrap(), Asn(1)).unwrap();
        m.insert(Prefix::new(0x0a01_0000, 16).unwrap(), Asn(2)).unwrap();
        m.insert(Prefix::new(0x0a01_0100, 24).unwrap(), Asn(3)).unwrap();
        assert_eq!(m.lookup(0x0a01_0105), Some(Asn(3)));
        assert_eq!(m.lookup(0x0a01_0205), Some(Asn(2)));
        assert_eq!(m.lookup(0x0a05_0000), Some(Asn(1)));
        assert_eq!(m.lookup(0x0b00_0000), None);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn duplicate_prefix_rejected() {
        let mut m = IpAsnMap::new();
        let p = Prefix::new(0x0a00_0000, 16).unwrap();
        m.insert(p, Asn(1)).unwrap();
        assert!(matches!(m.insert(p, Asn(2)), Err(TopoError::DuplicatePrefix { .. })));
    }

    #[test]
    fn allocator_produces_disjoint_prefixes() {
        let mut alloc = PrefixAllocator::new();
        let a = alloc.allocate(16).unwrap();
        let b = alloc.allocate(16).unwrap();
        let c = alloc.allocate(20).unwrap();
        assert!(!a.contains(b.network()));
        assert!(!b.contains(c.network()));
        assert!(!a.contains(c.network()));
    }

    #[test]
    fn allocator_rejects_bad_lengths() {
        let mut alloc = PrefixAllocator::new();
        assert!(alloc.allocate(0).is_err());
        assert!(alloc.allocate(33).is_err());
    }

    #[test]
    fn topology_allocation_covers_every_as() {
        let g = TopologyGenerator::new(TopologyConfig::small(), 41).generate().unwrap();
        let (map, allocs) = PrefixAllocator::new().allocate_for(&g).unwrap();
        assert_eq!(allocs.len(), g.len());
        for (asn, prefixes) in &allocs {
            for p in prefixes {
                // The first address of each prefix maps back to its owner.
                assert_eq!(map.lookup(p.network()), Some(*asn));
                assert_eq!(map.lookup(p.address(p.size() - 1)), Some(*asn));
            }
        }
    }

    #[test]
    fn empty_map_lookup() {
        let m = IpAsnMap::new();
        assert!(m.is_empty());
        assert_eq!(m.lookup(42), None);
    }

    #[test]
    fn iter_and_address_space() {
        let mut m = IpAsnMap::new();
        m.insert(Prefix::new(0x0a00_0000, 16).unwrap(), Asn(1)).unwrap();
        m.insert(Prefix::new(0x0b00_0000, 24).unwrap(), Asn(1)).unwrap();
        m.insert(Prefix::new(0x0c00_0000, 24).unwrap(), Asn(2)).unwrap();
        assert_eq!(m.iter().count(), 3);
        let space = m.address_space_by_asn();
        assert_eq!(space[&Asn(1)], 65_536 + 256);
        assert_eq!(space[&Asn(2)], 256);
    }
}
