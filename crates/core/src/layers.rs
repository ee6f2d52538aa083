//! Structuring the kernel for certification: the paper's two techniques.
//!
//! "One technique of modularization is to divide the kernel into domains
//! arranged so that each property is implied by a subset of the domains.
//! ... Another technique is to ignore any structure suggested by the
//! security properties and divide the kernel into domains according to a
//! principle like Parnas' notion of information hiding ... Which of these
//! two approaches is preferable, or indeed whether they really are
//! different approaches, remains to be seen."
//!
//! This module makes the comparison concrete for *this* kernel. Each
//! security property is mapped to the set of modules whose correctness it
//! rests on (the property-subset technique); each module carries an
//! interface-specification burden (the information-hiding technique,
//! approximated by its gate/entry count plus a fixed per-module interface
//! cost). [`StructureReport`] computes the audit scope either way, and the
//! A3 ablation (`exp_a3_layering`) prints the numbers — including the
//! paper's observation that putting the MLS layer at the *bottom* shrinks
//! the scope of the compartmentalization property to a fraction of the
//! kernel.

use mks_hw::module::Category;

use crate::audit::SystemInventory;
use crate::config::KernelConfig;

/// A security property of the model the kernel must match.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Property {
    /// No information flows downward in the lattice (simple security + ★).
    NoDownwardFlow,
    /// Every reference is mediated (no path around the monitor).
    CompleteMediation,
    /// Discretionary ACLs are enforced as written.
    AclEnforcement,
    /// Gate entry points are the only ways into the kernel rings.
    GateIntegrity,
    /// Released storage carries no residue.
    NoResidue,
    /// IPC connectivity follows memory protection.
    IpcGuarded,
    /// Authentication precedes every session.
    AuthenticatedSessions,
}

impl Property {
    /// All properties, for reports.
    pub const ALL: [Property; 7] = [
        Property::NoDownwardFlow,
        Property::CompleteMediation,
        Property::AclEnforcement,
        Property::GateIntegrity,
        Property::NoResidue,
        Property::IpcGuarded,
        Property::AuthenticatedSessions,
    ];

    /// Short label.
    pub fn label(self) -> &'static str {
        match self {
            Property::NoDownwardFlow => "no downward flow",
            Property::CompleteMediation => "complete mediation",
            Property::AclEnforcement => "acl enforcement",
            Property::GateIntegrity => "gate integrity",
            Property::NoResidue => "no residue",
            Property::IpcGuarded => "ipc guarded",
            Property::AuthenticatedSessions => "authenticated sessions",
        }
    }

    /// The module categories this property's verification must examine,
    /// **given the layered structure** (MLS at the bottom, policy split
    /// out, naming/linker outside). This encodes the design decisions; the
    /// scope numbers are then measured from the audited inventory.
    fn layered_scope(self) -> &'static [Category] {
        match self {
            // The bottom layer: labels checked before anything else, so
            // only the MLS module and the monitor that calls it matter.
            Property::NoDownwardFlow => &[Category::Mls, Category::Gates],
            // Mediation: the monitor plus everything that can mint an SDW
            // or move a page under one.
            Property::CompleteMediation => &[
                Category::Gates,
                Category::AddressSpace,
                Category::PageControl,
            ],
            Property::AclEnforcement => &[Category::FileSystem, Category::Gates],
            Property::GateIntegrity => &[Category::Gates, Category::Processes],
            Property::NoResidue => &[Category::PageControl],
            Property::IpcGuarded => &[Category::Ipc, Category::Gates],
            Property::AuthenticatedSessions => &[Category::Auth, Category::Gates],
        }
    }
}

/// One row of the structure report.
#[derive(Clone, Debug)]
pub struct PropertyScope {
    /// The property.
    pub property: Property,
    /// Protected statements a verifier must read under the layered
    /// (property-subset) organization.
    pub layered_weight: u32,
    /// Statements under a flat organization (no layering: every property
    /// potentially involves every protected module).
    pub flat_weight: u32,
}

/// The structure comparison for one configuration.
pub struct StructureReport {
    /// Per-property scopes.
    pub scopes: Vec<PropertyScope>,
    /// Total protected weight (the flat scope).
    pub total_protected: u32,
}

impl StructureReport {
    /// Computes the report from an audited inventory.
    pub fn build(inv: &SystemInventory) -> StructureReport {
        let total_protected = inv.protected_weight();
        let scopes = Property::ALL
            .iter()
            .map(|p| {
                let layered_weight = p
                    .layered_scope()
                    .iter()
                    .map(|c| inv.protected_weight_of(*c))
                    .sum();
                PropertyScope {
                    property: *p,
                    layered_weight,
                    flat_weight: total_protected,
                }
            })
            .collect();
        StructureReport {
            scopes,
            total_protected,
        }
    }

    /// Convenience: build for a configuration.
    pub fn for_config(cfg: KernelConfig) -> StructureReport {
        StructureReport::build(&SystemInventory::build(cfg))
    }

    /// Mean fraction of the kernel a per-property verification must read.
    pub fn mean_scope_fraction(&self) -> f64 {
        if self.scopes.is_empty() || self.total_protected == 0 {
            return 0.0;
        }
        let s: f64 = self
            .scopes
            .iter()
            .map(|s| f64::from(s.layered_weight) / f64::from(self.total_protected))
            .sum();
        s / self.scopes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_property_has_a_nonempty_scope() {
        let r = StructureReport::for_config(KernelConfig::kernel());
        for s in &r.scopes {
            assert!(s.layered_weight > 0, "{:?} has empty scope", s.property);
            assert!(s.layered_weight <= s.flat_weight);
        }
    }

    #[test]
    fn layering_shrinks_the_mean_audit_scope() {
        let r = StructureReport::for_config(KernelConfig::kernel());
        assert!(
            r.mean_scope_fraction() < 0.75,
            "mean scope fraction {} — layering is not helping",
            r.mean_scope_fraction()
        );
    }

    #[test]
    fn the_bottom_layer_property_has_a_small_scope() {
        // The paper's motivation for MLS-at-the-bottom: the
        // compartmentalization property should be checkable against a
        // fraction of the kernel.
        let r = StructureReport::for_config(KernelConfig::kernel());
        let flow = r
            .scopes
            .iter()
            .find(|s| s.property == Property::NoDownwardFlow)
            .unwrap();
        let frac = f64::from(flow.layered_weight) / f64::from(flow.flat_weight);
        assert!(frac < 0.5, "no-downward-flow needs {frac} of the kernel");
    }

    #[test]
    fn mediation_is_the_widest_property() {
        // Complete mediation genuinely spans more of the kernel than any
        // other property — that is *why* the monitor is the heart.
        let r = StructureReport::for_config(KernelConfig::kernel());
        let mediation = r
            .scopes
            .iter()
            .find(|s| s.property == Property::CompleteMediation)
            .unwrap()
            .layered_weight;
        for s in &r.scopes {
            assert!(s.layered_weight <= mediation, "{:?}", s.property);
        }
    }
}
