//! Coherence protocol selection.
//!
//! The paper's KNL keeps lines coherent with MESIF over its distributed tag
//! directories; the simulator additionally models MESI, MOESI, and the
//! update-based Dragon protocol so the same measure→fit pipeline can emit
//! *differential* capability models per protocol (`knl run protocols`). This enum
//! is pure description: the name plus the three policy bits in which the
//! protocols differ, which the one transition function in
//! `knl_sim::protocol` consults.

/// Which coherence protocol the simulated directories run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProtocolKind {
    /// Intel's MESIF: a clean Forward copy supplies shared reads (the KNL
    /// default, and the calibration target of Tables I/II).
    #[default]
    Mesif,
    /// Classic MESI: no Forward state; shared reads are served by memory.
    Mesi,
    /// MOESI: a dirty Owned copy supplies shared reads without writing back.
    Moesi,
    /// Dragon: update-based — remote stores update sharers in place instead
    /// of invalidating them.
    Dragon,
}

impl ProtocolKind {
    /// Every protocol back end, in display order.
    pub const ALL: [ProtocolKind; 4] = [
        ProtocolKind::Mesif,
        ProtocolKind::Mesi,
        ProtocolKind::Moesi,
        ProtocolKind::Dragon,
    ];

    /// Canonical lowercase name (CLI value, golden-snapshot key).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Mesif => "mesif",
            ProtocolKind::Mesi => "mesi",
            ProtocolKind::Moesi => "moesi",
            ProtocolKind::Dragon => "dragon",
        }
    }

    /// Parse a CLI / env value.
    pub fn parse(s: &str) -> Option<ProtocolKind> {
        match s.to_ascii_lowercase().as_str() {
            "mesif" => Some(ProtocolKind::Mesif),
            "mesi" => Some(ProtocolKind::Mesi),
            "moesi" => Some(ProtocolKind::Moesi),
            "dragon" => Some(ProtocolKind::Dragon),
            _ => None,
        }
    }

    /// True for protocols whose remote stores *invalidate* sharers; Dragon
    /// instead updates them in place.
    pub fn invalidation_based(self) -> bool {
        !matches!(self, ProtocolKind::Dragon)
    }

    /// True when the latest reader of a shared line becomes its clean
    /// Forward holder and answers the next read (MESIF); elsewhere memory
    /// supplies clean shared lines.
    pub fn has_forward(self) -> bool {
        matches!(self, ProtocolKind::Mesif)
    }

    /// True when a remote read of a Modified line leaves the dirty data
    /// cached at its owner (MOESI's O, Dragon's Sm) instead of forcing a
    /// write-back.
    pub fn has_owned(self) -> bool {
        matches!(self, ProtocolKind::Moesi | ProtocolKind::Dragon)
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for p in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::parse(p.name()), Some(p));
            assert_eq!(ProtocolKind::parse(&p.name().to_uppercase()), Some(p));
        }
        assert_eq!(ProtocolKind::parse("mosi"), None);
    }

    #[test]
    fn default_is_mesif() {
        assert_eq!(ProtocolKind::default(), ProtocolKind::Mesif);
    }

    #[test]
    fn policy_bits_tell_the_four_protocols_apart() {
        // (forward, owned, invalidation): the grid of DESIGN.md §5f — only
        // Dragon updates instead of invalidating.
        let grid =
            ProtocolKind::ALL.map(|p| (p.has_forward(), p.has_owned(), p.invalidation_based()));
        assert_eq!(
            grid,
            [
                (true, false, true),
                (false, false, true),
                (false, true, true),
                (false, true, false),
            ]
        );
    }
}
