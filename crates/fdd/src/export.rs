//! A portable FDD representation for crossing [`Manager`] boundaries.
//!
//! The parallel backend (§6 "Parallel speedup") compiles per-switch
//! programs on worker threads, each with a private manager to avoid lock
//! contention — mirroring the paper's per-process workers. Results travel
//! back as [`FddExport`] values and are re-interned into the main manager.
//!
//! An export can carry *several* roots over one shared node table
//! ([`Manager::export_all`]): a pool worker ships every hop diagram it
//! compiled in one export, and any structure the hops share is serialised
//! (and later re-interned) exactly once.

use crate::{ActionDist, Fdd, Manager, Node};
use mcnetkat_core::{Field, Value};
use std::collections::HashMap;

/// A self-contained, manager-independent FDD as a flattened DAG.
///
/// Holds one or more root handles into a shared node table; nodes reachable
/// from several roots are stored once.
#[derive(Clone, Debug)]
pub struct FddExport {
    nodes: Vec<ExportNode>,
    roots: Vec<usize>,
}

#[derive(Clone, Debug)]
enum ExportNode {
    Leaf(ActionDist),
    Branch {
        field: Field,
        value: Value,
        hi: usize,
        lo: usize,
    },
}

impl Manager {
    /// Exports `p` as a manager-independent DAG.
    pub fn export(&self, p: Fdd) -> FddExport {
        self.export_all(&[p])
    }

    /// Exports several diagrams into one DAG with a shared node table.
    ///
    /// Structure shared between the roots is serialised once; [`import_all`]
    /// re-interns it once on the other side as well.
    ///
    /// [`import_all`]: Manager::import_all
    pub fn export_all(&self, ps: &[Fdd]) -> FddExport {
        let mut ids: HashMap<Fdd, usize> = HashMap::new();
        let mut nodes: Vec<ExportNode> = Vec::new();
        let roots = ps
            .iter()
            .map(|&p| self.export_rec(p, &mut ids, &mut nodes))
            .collect();
        FddExport { nodes, roots }
    }

    fn export_rec(
        &self,
        p: Fdd,
        ids: &mut HashMap<Fdd, usize>,
        nodes: &mut Vec<ExportNode>,
    ) -> usize {
        if let Some(&ix) = ids.get(&p) {
            return ix;
        }
        let exported = match self.node(p) {
            Node::Leaf(did) => ExportNode::Leaf(self.leaf_dist(did).as_ref().clone()),
            Node::Branch {
                field,
                value,
                hi,
                lo,
            } => {
                let hi = self.export_rec(hi, ids, nodes);
                let lo = self.export_rec(lo, ids, nodes);
                ExportNode::Branch {
                    field,
                    value,
                    hi,
                    lo,
                }
            }
        };
        let ix = nodes.len();
        nodes.push(exported);
        ids.insert(p, ix);
        ix
    }

    /// Re-interns an exported DAG into this manager, returning its first
    /// root.
    ///
    /// # Panics
    ///
    /// Panics if `export` carries no roots (produced by `export_all(&[])`).
    pub fn import(&self, export: &FddExport) -> Fdd {
        assert!(
            export.root_count() > 0,
            "cannot import a root-less FddExport"
        );
        self.import_all(export)[0]
    }

    /// Re-interns an exported DAG into this manager, returning every root
    /// in export order. Shared nodes are interned once.
    pub fn import_all(&self, export: &FddExport) -> Vec<Fdd> {
        // Children always precede parents in the export order.
        let mut interned: Vec<Fdd> = Vec::with_capacity(export.nodes.len());
        for node in &export.nodes {
            let fdd = match node {
                ExportNode::Leaf(d) => self.leaf(d.clone()),
                ExportNode::Branch {
                    field,
                    value,
                    hi,
                    lo,
                } => self.branch(*field, *value, interned[*hi], interned[*lo]),
            };
            interned.push(fdd);
        }
        export.roots.iter().map(|&r| interned[r]).collect()
    }
}

impl FddExport {
    /// Number of nodes in the exported DAG.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the DAG is empty (never the case for valid
    /// exports).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of roots carried by this export.
    pub fn root_count(&self) -> usize {
        self.roots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcnetkat_core::{Field, Packet, Pred, Prog};
    use mcnetkat_num::Ratio;

    #[test]
    fn round_trip_within_one_manager() {
        let mgr = Manager::new();
        let f = Field::named("exp_f");
        let prog = Prog::ite(
            Pred::test(f, 1),
            Prog::choice2(Prog::assign(f, 2), Ratio::new(1, 2), Prog::drop()),
            Prog::skip(),
        );
        let fdd = mgr.compile(&prog).unwrap();
        let back = mgr.import(&mgr.export(fdd));
        assert_eq!(fdd, back); // hash-consing gives pointer equality
    }

    #[test]
    fn cross_manager_transfer_preserves_semantics() {
        let worker = Manager::new();
        let main = Manager::new();
        let f = Field::named("exp_g");
        let prog = Prog::choice2(Prog::assign(f, 7), Ratio::new(1, 4), Prog::drop());
        let fdd = worker.compile(&prog).unwrap();
        let moved = main.import(&worker.export(fdd));
        let pk = Packet::new();
        assert_eq!(worker.output_dist(fdd, &pk), main.output_dist(moved, &pk));
    }

    #[test]
    fn export_shares_nodes() {
        let mgr = Manager::new();
        let f = Field::named("exp_h");
        let g = Field::named("exp_i");
        // Both branches point at the same subdiagram — the export must not
        // duplicate it.
        let shared = mgr.branch(g, 1, mgr.pass(), mgr.fail());
        let fdd = mgr.branch(f, 1, shared, shared);
        // hi == lo collapses, so build a diamond instead:
        let fdd2 = mgr.branch(f, 1, shared, mgr.fail());
        let _ = fdd;
        let export = mgr.export(fdd2);
        // pass, fail, shared-branch, root = 4 nodes.
        assert_eq!(export.len(), 4);
    }

    #[test]
    fn multi_root_export_shares_nodes_across_roots() {
        let mgr = Manager::new();
        let f = Field::named("exp_j");
        let g = Field::named("exp_k");
        let shared = mgr.branch(g, 1, mgr.pass(), mgr.fail());
        let a = mgr.branch(f, 1, shared, mgr.fail());
        let b = mgr.branch(f, 2, shared, mgr.fail());
        let export = mgr.export_all(&[a, b]);
        assert_eq!(export.root_count(), 2);
        // pass, fail, shared, a-root, b-root — `shared` appears once.
        assert_eq!(export.len(), 5);
        // Round trip through a second manager and back preserves identity.
        let other = Manager::new();
        let moved = other.import_all(&export);
        let back = mgr.import_all(&other.export_all(&moved));
        assert_eq!(back, vec![a, b]);
    }
}
