//! The canonical packet fields used by network models.
//!
//! Field interning order fixes the FDD variable order, which matters for
//! diagram size: `sw` is tested at the root of every per-switch `case`, so
//! it comes first, then `pt`, the detour flag, the failure budget, the hop
//! counter, the link-health flags and the group flags (see
//! [`NetFields::with_groups`]).
//!
//! Since the fused per-switch pipeline eliminates every `up_i`/`grp_j`
//! scratch field before the global diagram is assembled, the order of the
//! health flags is a second-order effect: it only shapes the small
//! per-switch scratch diagrams.

use mcnetkat_core::Field;

/// The field handles shared by all model-building code.
#[derive(Clone, Debug)]
pub struct NetFields {
    /// Current switch (1-based; 0 = unset).
    pub sw: Field,
    /// Current port on the switch.
    pub pt: Field,
    /// F10₃,₅ detour flag.
    pub dt: Field,
    /// Remaining-failure budget counter for bounded failure models `f_k`.
    pub fl: Field,
    /// Hop counter for path-stretch queries (Figure 12 b/c).
    pub cnt: Field,
    /// `up_i` link-health flags, indexed by port number (1-based).
    ups: Vec<Field>,
    /// `grp_j` shared-risk-group health flags, indexed by group (1-based).
    /// Scratch state: drawn once per group per hop, consumed by the member
    /// links' `up_i` derivations, erased before the next hop, and projected
    /// out of the compiled diagram entirely (`Manager::forget`).
    grps: Vec<Field>,
}

impl NetFields {
    /// Interns the canonical fields for a topology with maximum degree
    /// `max_ports`.
    pub fn new(max_ports: usize) -> NetFields {
        NetFields::with_groups(max_ports, 0)
    }

    /// Interns the canonical fields plus `groups` shared-risk-group health
    /// flags (for models with a [`crate::FailureSpec`] that declares
    /// SRLGs).
    ///
    /// Interning is process-wide and first-use-wins, so this fixes the
    /// FDD variable order `sw, pt, dt, fl, cnt, up₁…, grp₁…`: loop state
    /// sits right under the switch/port dispatch, scratch fields last.
    pub fn with_groups(max_ports: usize, groups: usize) -> NetFields {
        let sw = Field::named("sw");
        let pt = Field::named("pt");
        let dt = Field::named("dt");
        let fl = Field::named("fl");
        let cnt = Field::named("cnt");
        let ups = (1..=max_ports)
            .map(|i| Field::named(&format!("up{i}")))
            .collect();
        let grps = (1..=groups)
            .map(|j| Field::named(&format!("grp{j}")))
            .collect();
        NetFields {
            sw,
            pt,
            dt,
            fl,
            cnt,
            ups,
            grps,
        }
    }

    /// The `up_i` flag for port `i` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `i` is 0 or exceeds the maximum degree.
    pub fn up(&self, i: u32) -> Field {
        self.ups[(i as usize).checked_sub(1).expect("ports are 1-based")]
    }

    /// All `up` fields, in port order.
    pub fn ups(&self) -> &[Field] {
        &self.ups
    }

    /// The `grp_j` health flag for shared-risk group `j` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `j` is 0 or exceeds the declared group count.
    pub fn grp(&self, j: u32) -> Field {
        self.grps[(j as usize).checked_sub(1).expect("groups are 1-based")]
    }

    /// All group fields, in group order.
    pub fn grps(&self) -> &[Field] {
        &self.grps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn up_fields_are_one_based() {
        let f = NetFields::new(3);
        assert_eq!(f.up(1).name(), "up1");
        assert_eq!(f.up(3).name(), "up3");
        assert_eq!(f.ups().len(), 3);
    }

    #[test]
    fn interning_is_shared() {
        let a = NetFields::new(2);
        let b = NetFields::new(2);
        assert_eq!(a.sw, b.sw);
        assert_eq!(a.up(2), b.up(2));
    }

    #[test]
    fn standard_order_puts_dispatch_and_loop_state_before_scratch() {
        let f = NetFields::with_groups(3, 2);
        assert!(f.sw < f.pt && f.pt < f.dt && f.dt < f.fl);
        assert!(f.fl < f.cnt && f.cnt < f.up(1));
    }

    #[test]
    fn group_fields_are_one_based_and_shared() {
        let a = NetFields::with_groups(2, 3);
        let b = NetFields::with_groups(4, 2);
        assert_eq!(a.grp(1).name(), "grp1");
        assert_eq!(a.grp(3).name(), "grp3");
        assert_eq!(a.grps().len(), 3);
        assert_eq!(a.grp(2), b.grp(2));
        assert!(NetFields::new(2).grps().is_empty());
    }
}
