//! Dependency graphs over constraint sets: `G(IC)`, the contracted graph
//! `G^C(IC)`, RIC-acyclicity (Definition 1), and the bilateral-predicate
//! condition of Theorem 5 (Definition 11).

use crate::ast::{Constraint, IcSet};
use crate::classify::{classify, IcClass};
use cqa_relational::{RelId, Schema};
use std::collections::{BTreeMap, BTreeSet};

/// A directed edge of `G(IC)`: from an antecedent predicate to a consequent
/// predicate, labelled with the index of the constraint inducing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Antecedent predicate.
    pub from: RelId,
    /// Consequent predicate.
    pub to: RelId,
    /// Index into the [`IcSet`].
    pub ic_index: usize,
}

/// The dependency graph `G(IC)`: database predicates as vertices, an edge
/// `(Pᵢ, Pⱼ)` whenever some constraint has `Pᵢ` in its antecedent and `Pⱼ`
/// in its consequent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependencyGraph {
    /// Every predicate mentioned by the constraint set.
    pub vertices: BTreeSet<RelId>,
    /// All labelled edges.
    pub edges: BTreeSet<Edge>,
}

impl DependencyGraph {
    /// Render in Graphviz DOT syntax (deterministic output).
    pub fn to_dot(&self, schema: &Schema, ics: &IcSet) -> String {
        let mut out = String::from("digraph G {\n");
        for v in &self.vertices {
            out.push_str(&format!("  {};\n", schema.relation(*v).name()));
        }
        for e in &self.edges {
            out.push_str(&format!(
                "  {} -> {} [label=\"{}\"];\n",
                schema.relation(e.from).name(),
                schema.relation(e.to).name(),
                ics.constraints()[e.ic_index].name()
            ));
        }
        out.push_str("}\n");
        out
    }
}

/// Build `G(IC)` for a constraint set (NOT NULL constraints contribute
/// their predicate as an isolated vertex; they induce no edges).
pub fn dependency_graph(ics: &IcSet) -> DependencyGraph {
    let mut vertices = BTreeSet::new();
    let mut edges = BTreeSet::new();
    for (index, con) in ics.constraints().iter().enumerate() {
        match con {
            Constraint::Tgd(ic) => {
                for b in ic.body() {
                    vertices.insert(b.rel);
                    for h in ic.head() {
                        vertices.insert(h.rel);
                        edges.insert(Edge {
                            from: b.rel,
                            to: h.rel,
                            ic_index: index,
                        });
                    }
                }
                for h in ic.head() {
                    vertices.insert(h.rel);
                }
            }
            Constraint::NotNull(nnc) => {
                vertices.insert(nnc.rel);
            }
        }
    }
    DependencyGraph { vertices, edges }
}

/// The contracted dependency graph `G^C(IC)` of Definition 1: the
/// connected components of `G(IC_U)` (the UIC-induced subgraph, taken with
/// undirected connectivity) are merged into single vertices, UIC edges are
/// deleted, and the remaining (referential/existential) edges connect
/// components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractedGraph {
    /// The vertex groups: each is a set of predicates collapsed together.
    pub components: Vec<BTreeSet<RelId>>,
    /// Edges between component indices, labelled by constraint index.
    pub edges: BTreeSet<(usize, usize, usize)>,
}

impl ContractedGraph {
    /// Does the contracted graph contain a directed cycle (self-loops
    /// count)?
    pub fn has_cycle(&self) -> bool {
        // Kahn's algorithm; leftover vertices indicate a cycle. Self-loops
        // are cycles immediately.
        if self.edges.iter().any(|(a, b, _)| a == b) {
            return true;
        }
        let n = self.components.len();
        let mut indegree = vec![0usize; n];
        let mut adj: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        for (a, b, _) in &self.edges {
            if adj.entry(*a).or_default().insert(*b) {
                indegree[*b] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
        let mut seen = 0usize;
        while let Some(v) = queue.pop() {
            seen += 1;
            if let Some(next) = adj.get(&v) {
                for &w in next {
                    indegree[w] -= 1;
                    if indegree[w] == 0 {
                        queue.push(w);
                    }
                }
            }
        }
        seen != n
    }

    /// Render in Graphviz DOT syntax.
    pub fn to_dot(&self, schema: &Schema, ics: &IcSet) -> String {
        let label = |idx: usize| -> String {
            let names: Vec<&str> = self.components[idx]
                .iter()
                .map(|r| schema.relation(*r).name())
                .collect();
            format!("\"{{{}}}\"", names.join(","))
        };
        let mut out = String::from("digraph GC {\n");
        for i in 0..self.components.len() {
            out.push_str(&format!("  {};\n", label(i)));
        }
        for (a, b, ic) in &self.edges {
            out.push_str(&format!(
                "  {} -> {} [label=\"{}\"];\n",
                label(*a),
                label(*b),
                ics.constraints()[*ic].name()
            ));
        }
        out.push_str("}\n");
        out
    }
}

/// Build `G^C(IC)`.
pub fn contracted_dependency_graph(ics: &IcSet) -> ContractedGraph {
    let g = dependency_graph(ics);
    // Union-find over the UIC edges (undirected connectivity).
    let verts: Vec<RelId> = g.vertices.iter().copied().collect();
    let index_of: BTreeMap<RelId, usize> = verts.iter().enumerate().map(|(i, r)| (*r, i)).collect();
    let mut parent: Vec<usize> = (0..verts.len()).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for e in &g.edges {
        let universal = ics.constraints()[e.ic_index]
            .as_ic()
            .map(|ic| classify(ic) == IcClass::Universal)
            .unwrap_or(false);
        if universal {
            let (a, b) = (index_of[&e.from], index_of[&e.to]);
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra] = rb;
            }
        }
    }
    let mut groups: BTreeMap<usize, BTreeSet<RelId>> = BTreeMap::new();
    for (i, rel) in verts.iter().enumerate() {
        groups.entry(find(&mut parent, i)).or_default().insert(*rel);
    }
    let components: Vec<BTreeSet<RelId>> = groups.into_values().collect();
    let comp_of: BTreeMap<RelId, usize> = components
        .iter()
        .enumerate()
        .flat_map(|(i, c)| c.iter().map(move |r| (*r, i)))
        .collect();
    let mut edges = BTreeSet::new();
    for e in &g.edges {
        let universal = ics.constraints()[e.ic_index]
            .as_ic()
            .map(|ic| classify(ic) == IcClass::Universal)
            .unwrap_or(false);
        if !universal {
            edges.insert((comp_of[&e.from], comp_of[&e.to], e.ic_index));
        }
    }
    ContractedGraph { components, edges }
}

/// Is the constraint set RIC-acyclic (Definition 1)? Pure-UIC sets always
/// are; Theorem 4's stable-model/repair correspondence requires this.
pub fn is_ric_acyclic(ics: &IcSet) -> bool {
    !contracted_dependency_graph(ics).has_cycle()
}

/// The bilateral predicates of Definition 11: predicates occurring in the
/// antecedent of some constraint and in the consequent of some (possibly
/// the same) constraint.
pub fn bilateral_predicates(ics: &IcSet) -> BTreeSet<RelId> {
    let mut in_body = BTreeSet::new();
    let mut in_head = BTreeSet::new();
    for (_, ic) in ics.ics() {
        for a in ic.body() {
            in_body.insert(a.rel);
        }
        for a in ic.head() {
            in_head.insert(a.rel);
        }
    }
    in_body.intersection(&in_head).copied().collect()
}

/// The sufficient HCF condition of Theorem 5: every constraint has either
/// no occurrence of a bilateral predicate, or exactly one (counting
/// repetitions across body and head).
pub fn theorem5_hcf_condition(ics: &IcSet) -> bool {
    let bilateral = bilateral_predicates(ics);
    for (_, ic) in ics.ics() {
        let occurrences = ic
            .body()
            .iter()
            .chain(ic.head())
            .filter(|a| bilateral.contains(&a.rel))
            .count();
        if occurrences > 1 {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{v, Constraint, Ic};
    use cqa_relational::Schema;

    fn schema() -> Schema {
        Schema::builder()
            .relation("S", ["s"])
            .relation("Q", ["q"])
            .relation("R", ["r"])
            .relation("T", ["x", "y"])
            .finish()
            .unwrap()
    }

    /// The constraint set of Example 2: ic1: S(x)→Q(x), ic2: Q(x)→R(x),
    /// ic3: Q(x)→∃y T(x,y).
    fn example2(sc: &Schema) -> IcSet {
        let ic1 = Ic::builder(sc, "ic1")
            .body_atom("S", [v("x")])
            .head_atom("Q", [v("x")])
            .finish()
            .unwrap();
        let ic2 = Ic::builder(sc, "ic2")
            .body_atom("Q", [v("x")])
            .head_atom("R", [v("x")])
            .finish()
            .unwrap();
        let ic3 = Ic::builder(sc, "ic3")
            .body_atom("Q", [v("x")])
            .head_atom("T", [v("x"), v("y")])
            .finish()
            .unwrap();
        IcSet::new([
            Constraint::from(ic1),
            Constraint::from(ic2),
            Constraint::from(ic3),
        ])
    }

    #[test]
    fn example2_dependency_graph() {
        let sc = schema();
        let ics = example2(&sc);
        let g = dependency_graph(&ics);
        assert_eq!(g.vertices.len(), 4);
        assert_eq!(g.edges.len(), 3);
        let dot = g.to_dot(&sc, &ics);
        assert!(dot.contains("S -> Q"));
        assert!(dot.contains("Q -> R"));
        assert!(dot.contains("Q -> T"));
    }

    #[test]
    fn example3_contraction_and_acyclicity() {
        let sc = schema();
        let ics = example2(&sc);
        let gc = contracted_dependency_graph(&ics);
        // {S,Q,R} collapse; T stands alone; one RIC edge between them.
        assert_eq!(gc.components.len(), 2);
        assert_eq!(gc.edges.len(), 1);
        assert!(!gc.has_cycle());
        assert!(is_ric_acyclic(&ics));
    }

    #[test]
    fn example3_adding_uic_creates_ric_cycle() {
        // Adding T(x,y) → R(y) merges everything into one component, and
        // the RIC edge becomes a self-loop: not RIC-acyclic.
        let sc = schema();
        let mut ics = example2(&sc);
        let ic4 = Ic::builder(&sc, "ic4")
            .body_atom("T", [v("x"), v("y")])
            .head_atom("R", [v("y")])
            .finish()
            .unwrap();
        ics.push(ic4);
        let gc = contracted_dependency_graph(&ics);
        assert_eq!(gc.components.len(), 1);
        assert!(gc.has_cycle());
        assert!(!is_ric_acyclic(&ics));
        let dot = gc.to_dot(&sc, &ics);
        assert!(dot.contains("ic3"));
    }

    #[test]
    fn pure_uic_sets_are_ric_acyclic() {
        // Even mutually recursive UICs: S(x)→Q(x), Q(x)→S(x).
        let sc = schema();
        let a = Ic::builder(&sc, "a")
            .body_atom("S", [v("x")])
            .head_atom("Q", [v("x")])
            .finish()
            .unwrap();
        let b = Ic::builder(&sc, "b")
            .body_atom("Q", [v("x")])
            .head_atom("S", [v("x")])
            .finish()
            .unwrap();
        let ics = IcSet::new([Constraint::from(a), Constraint::from(b)]);
        assert!(is_ric_acyclic(&ics));
    }

    #[test]
    fn example18_cyclic_ric_set_detected() {
        // P(x,y) → T(x) (UIC), T(x) → ∃y P(y,x) (RIC): contracted graph has
        // a self-loop on the merged {P, T} component.
        let sc = Schema::builder()
            .relation("P", ["a", "b"])
            .relation("T", ["t"])
            .finish()
            .unwrap();
        let uic = Ic::builder(&sc, "uic")
            .body_atom("P", [v("x"), v("y")])
            .head_atom("T", [v("x")])
            .finish()
            .unwrap();
        let ric = Ic::builder(&sc, "ric")
            .body_atom("T", [v("x")])
            .head_atom("P", [v("y"), v("x")])
            .finish()
            .unwrap();
        let ics = IcSet::new([Constraint::from(uic), Constraint::from(ric)]);
        assert!(!is_ric_acyclic(&ics));
    }

    #[test]
    fn example24_bilateral_predicates() {
        // IC = {T(x) → ∃y R(x,y), S(x,y) → T(x)}: only T is bilateral.
        let sc = Schema::builder()
            .relation("T", ["t"])
            .relation("R", ["a", "b"])
            .relation("S", ["u", "v"])
            .finish()
            .unwrap();
        let ric = Ic::builder(&sc, "r")
            .body_atom("T", [v("x")])
            .head_atom("R", [v("x"), v("y")])
            .finish()
            .unwrap();
        let uic = Ic::builder(&sc, "u")
            .body_atom("S", [v("x"), v("y")])
            .head_atom("T", [v("x")])
            .finish()
            .unwrap();
        let ics = IcSet::new([Constraint::from(ric), Constraint::from(uic)]);
        let bil = bilateral_predicates(&ics);
        assert_eq!(bil.len(), 1);
        assert!(bil.contains(&sc.rel_id("T").unwrap()));
        assert!(theorem5_hcf_condition(&ics));
    }

    #[test]
    fn theorem5_rejects_double_bilateral_occurrence() {
        // P(x,y) → P(y,x): P bilateral with two occurrences in one IC.
        let sc = Schema::builder()
            .relation("P", ["a", "b"])
            .finish()
            .unwrap();
        let ic = Ic::builder(&sc, "sym")
            .body_atom("P", [v("x"), v("y")])
            .head_atom("P", [v("y"), v("x")])
            .finish()
            .unwrap();
        let ics = IcSet::new([Constraint::from(ic)]);
        assert!(!theorem5_hcf_condition(&ics));
    }

    #[test]
    fn denial_only_sets_have_no_bilateral_predicates() {
        // Corollary 1's precondition.
        let sc = schema();
        let d1 = Ic::builder(&sc, "d1")
            .body_atom("S", [v("x")])
            .body_atom("Q", [v("x")])
            .finish()
            .unwrap();
        let ics = IcSet::new([Constraint::from(d1)]);
        assert!(bilateral_predicates(&ics).is_empty());
        assert!(theorem5_hcf_condition(&ics));
    }
}
