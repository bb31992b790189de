//! Cross-file, cross-crate call graph over the parsed [`crate::parser`]
//! facts.
//!
//! Resolution is name-based and deliberately over-approximate: a method
//! call `.solve(x)` draws an edge to *every* non-test method named `solve`
//! in the caller's crate or its (transitively) mentioned workspace crates.
//! A bare call `solve(x)` resolves as Rust does when the caller's own
//! module (same file, same inline `mod` path) defines a free `solve`: to
//! that fn alone. Otherwise it too fans out to every free `solve` in reach.
//! The crate-dependency filter — derived from `lrb_*` identifier mentions,
//! so it works for real manifests and virtual fixture workspaces alike —
//! keeps unrelated same-name items in sibling crates from short-circuiting
//! the reachability passes.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::parser::{CallKind, FileFacts, FnFact};

/// Call-graph size and resolution counters for the LINT report.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphStats {
    /// Function items parsed (including test functions).
    pub functions: usize,
    /// Distinct caller → callee edges between live functions.
    pub edges: usize,
    /// Call sites with at least one in-workspace candidate callee.
    pub resolved_calls: usize,
    /// Call sites with none (std / vendored / macro-generated targets).
    pub unresolved_calls: usize,
}

/// One function node: parser fact plus its file and owning crate.
pub struct Node {
    pub file: String,
    pub crate_name: String,
    pub fact: FnFact,
}

/// The resolved workspace call graph.
pub struct Graph {
    pub nodes: Vec<Node>,
    /// Adjacency: `edges[i]` is the sorted, deduped callee set of node `i`.
    pub edges: Vec<Vec<usize>>,
    /// Per node, per call site (parallel to `nodes[i].fact.calls`), the
    /// resolved candidate callees — the arith dataflow pass needs the
    /// site-level mapping, not just the merged adjacency.
    pub call_targets: Vec<Vec<Vec<usize>>>,
    pub stats: GraphStats,
}

impl Graph {
    /// Human-readable node label: `Type::name` or `name`.
    pub fn label(&self, i: usize) -> String {
        let f = &self.nodes[i].fact;
        match &f.qualifier {
            Some(q) => format!("{q}::{}", f.name),
            None => f.name.clone(),
        }
    }

    /// BFS from `roots`; returns reachability plus a predecessor map for
    /// reconstructing one deterministic call chain per reached node.
    pub fn reach(&self, roots: &[usize]) -> (Vec<bool>, Vec<Option<usize>>) {
        let mut seen = vec![false; self.nodes.len()];
        let mut pred = vec![None; self.nodes.len()];
        let mut queue = VecDeque::new();
        for &r in roots {
            if !seen[r] {
                seen[r] = true;
                queue.push_back(r);
            }
        }
        while let Some(i) = queue.pop_front() {
            for &j in &self.edges[i] {
                if !seen[j] {
                    seen[j] = true;
                    pred[j] = Some(i);
                    queue.push_back(j);
                }
            }
        }
        (seen, pred)
    }

    /// The call chain `root → ... → i` implied by `pred`, as node indices.
    pub fn chain(&self, pred: &[Option<usize>], i: usize) -> Vec<usize> {
        let mut chain = vec![i];
        let mut cur = i;
        while let Some(p) = pred[cur] {
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
    }
}

type NameIdx = BTreeMap<(String, String), Vec<usize>>;
type QualIdx = BTreeMap<(String, String, String), Vec<usize>>;
/// `(file, module path, name)` → the free fns a bare call there names.
type LocalIdx<'a> = BTreeMap<(&'a str, &'a [String], &'a str), Vec<usize>>;

/// Build the call graph from per-file parse facts.
pub fn build(files: Vec<FileFacts>) -> Graph {
    // Transitive crate-mention closure: crate → workspace crates it may
    // call into (always including itself).
    let mut mentions: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for f in &files {
        let entry = mentions.entry(f.crate_name.clone()).or_default();
        for m in &f.crate_mentions {
            entry.insert(m.clone());
        }
    }
    let crates: BTreeSet<String> = mentions.keys().cloned().collect();
    loop {
        let mut grew = false;
        for c in &crates {
            let deps: Vec<String> = mentions[c].iter().cloned().collect();
            let mut add = BTreeSet::new();
            for d in &deps {
                if let Some(dd) = mentions.get(d) {
                    for x in dd {
                        if !mentions[c].contains(x) {
                            add.insert(x.clone());
                        }
                    }
                }
            }
            if !add.is_empty() {
                mentions.get_mut(c).expect("crate key exists").extend(add);
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }

    // Flatten into nodes (files arrive sorted; parse order within a file is
    // source order, so node indices are deterministic).
    let mut nodes = Vec::new();
    for f in files {
        let (path, crate_name, fns) = (f.path, f.crate_name, f.fns);
        for fact in fns {
            nodes.push(Node {
                file: path.clone(),
                crate_name: crate_name.clone(),
                fact,
            });
        }
    }

    // Indexes over live (non-test) nodes only, so test helpers can never
    // satisfy a production call edge.
    let mut free: NameIdx = BTreeMap::new();
    let mut method: NameIdx = BTreeMap::new();
    let mut by_qual: QualIdx = BTreeMap::new();
    let mut by_mod: QualIdx = BTreeMap::new();
    let mut local: LocalIdx = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        if n.fact.is_test {
            continue;
        }
        let c = n.crate_name.clone();
        let name = n.fact.name.clone();
        match &n.fact.qualifier {
            None => {
                local
                    .entry((&n.file, &n.fact.modules, &n.fact.name))
                    .or_default()
                    .push(i);
                free.entry((c.clone(), name.clone())).or_default().push(i);
                for m in &n.fact.modules {
                    by_mod
                        .entry((c.clone(), m.clone(), name.clone()))
                        .or_default()
                        .push(i);
                }
            }
            Some(q) => {
                method.entry((c.clone(), name.clone())).or_default().push(i);
                by_qual.entry((c, q.clone(), name)).or_default().push(i);
            }
        }
    }

    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let mut call_targets: Vec<Vec<Vec<usize>>> = vec![Vec::new(); nodes.len()];
    let mut resolved_calls = 0usize;
    let mut unresolved_calls = 0usize;

    for i in 0..nodes.len() {
        if nodes[i].fact.is_test {
            continue;
        }
        let caller_crate = nodes[i].crate_name.clone();
        let mut allowed: BTreeSet<&String> = mentions
            .get(&caller_crate)
            .map(|s| s.iter().collect())
            .unwrap_or_default();
        allowed.insert(&caller_crate);

        let mut per_call = Vec::with_capacity(nodes[i].fact.calls.len());
        let mut out: BTreeSet<usize> = BTreeSet::new();
        for call in &nodes[i].fact.calls {
            let mut cands: BTreeSet<usize> = BTreeSet::new();
            match &call.kind {
                CallKind::Bare => {
                    let own = (
                        nodes[i].file.as_str(),
                        nodes[i].fact.modules.as_slice(),
                        call.name.as_str(),
                    );
                    match local.get(&own) {
                        Some(v) => cands.extend(v.iter().copied()),
                        None => {
                            for &c in &allowed {
                                if let Some(v) = free.get(&(c.clone(), call.name.clone())) {
                                    cands.extend(v.iter().copied());
                                }
                            }
                        }
                    }
                }
                CallKind::Method => {
                    for &c in &allowed {
                        if let Some(v) = method.get(&(c.clone(), call.name.clone())) {
                            cands.extend(v.iter().copied());
                        }
                    }
                }
                CallKind::Path(segs) => {
                    let last = segs.last().map(String::as_str).unwrap_or("");
                    if last == "Self" {
                        if let Some(q) = &nodes[i].fact.qualifier {
                            if let Some(v) =
                                by_qual.get(&(caller_crate.clone(), q.clone(), call.name.clone()))
                            {
                                cands.extend(v.iter().copied());
                            }
                        }
                    } else {
                        for &c in &allowed {
                            if let Some(v) =
                                by_qual.get(&(c.clone(), last.to_string(), call.name.clone()))
                            {
                                cands.extend(v.iter().copied());
                            }
                            if let Some(v) =
                                by_mod.get(&(c.clone(), last.to_string(), call.name.clone()))
                            {
                                cands.extend(v.iter().copied());
                            }
                        }
                        // `lrb_core::rebalance(...)` — crate-root free fn.
                        if segs.len() == 1 && allowed.contains(&last.to_string()) {
                            if let Some(v) = free.get(&(last.to_string(), call.name.clone())) {
                                cands.extend(v.iter().copied());
                            }
                        }
                    }
                }
            }
            if cands.is_empty() {
                unresolved_calls += 1;
            } else {
                resolved_calls += 1;
            }
            out.extend(cands.iter().copied());
            per_call.push(cands.into_iter().collect::<Vec<_>>());
        }
        edges[i] = out.into_iter().collect();
        call_targets[i] = per_call;
    }

    let stats = GraphStats {
        functions: nodes.len(),
        edges: edges.iter().map(Vec::len).sum(),
        resolved_calls,
        unresolved_calls,
    };
    Graph {
        nodes,
        edges,
        call_targets,
        stats,
    }
}
