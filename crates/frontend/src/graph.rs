//! Small graph utilities shared by the frontend and the inference engine:
//! Tarjan's strongly-connected components and condensation ordering.
//!
//! The paper's global dependency graph (Sec 4.3) organizes classes and
//! methods into a hierarchy of SCCs that is processed bottom-up; the
//! guarantee used there is exactly Tarjan's output order (components are
//! emitted callees-first).

/// Computes strongly connected components with Tarjan's algorithm.
///
/// `n` is the number of vertices (`0..n`); `succ(v)` yields the successors
/// of `v`. Components are returned in **reverse topological order** of the
/// condensation: if component `A` has an edge into component `B`, then `B`
/// appears before `A`. Processing the result front-to-back therefore visits
/// dependencies first.
///
/// Within a component, vertices come in the order Tarjan's stack pops them:
/// reverse discovery order, so a vertex's successors in the DFS tree come
/// before it. Callers that need another order sort the component.
///
/// # Examples
///
/// ```
/// use cj_frontend::graph::tarjan_scc;
///
/// // 0 -> 1 -> 2 -> 1 (cycle {1,2}), 0 -> 3
/// let adj = vec![vec![1, 3], vec![2], vec![1], vec![]];
/// let sccs = tarjan_scc(4, |v| adj[v].iter().copied());
/// let pos = |x: usize| sccs.iter().position(|s| s.contains(&x)).unwrap();
/// assert!(pos(1) < pos(0)); // callee component before caller
/// assert_eq!(pos(1), pos(2)); // cycle grouped
/// ```
pub fn tarjan_scc<I, F>(n: usize, mut succ: F) -> Vec<Vec<usize>>
where
    I: Iterator<Item = usize>,
    F: FnMut(usize) -> I,
{
    let adj: Vec<Vec<usize>> = (0..n).map(|v| succ(v).collect()).collect();
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut counter = 0usize;
    let mut result: Vec<Vec<usize>> = Vec::new();
    // Iterative DFS with explicit (node, next-edge) frames, folding each
    // child's lowlink into its parent when the child's frame is popped.
    let mut work: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        index[root] = counter;
        low[root] = counter;
        counter += 1;
        stack.push(root);
        on_stack[root] = true;
        work.push((root, 0));
        while let Some(&mut (v, ref mut ei)) = work.last_mut() {
            if *ei < adj[v].len() {
                let w = adj[v][*ei];
                *ei += 1;
                if index[w] == UNVISITED {
                    index[w] = counter;
                    low[w] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    work.push((w, 0));
                } else if on_stack[w] && index[w] < low[v] {
                    low[v] = index[w];
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    if low[v] < low[parent] {
                        low[parent] = low[v];
                    }
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("stack nonempty at root pop");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    result.push(scc);
                }
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sccs_of(adj: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
        let n = adj.len();
        tarjan_scc(n, |v| adj[v].iter().copied())
    }

    #[test]
    fn singletons_in_reverse_topo_order() {
        // 0 -> 1 -> 2
        let sccs = sccs_of(vec![vec![1], vec![2], vec![]]);
        assert_eq!(sccs, vec![vec![2], vec![1], vec![0]]);
    }

    #[test]
    fn simple_cycle_is_one_component() {
        let sccs = sccs_of(vec![vec![1], vec![0]]);
        assert_eq!(sccs, vec![vec![1, 0]]);
    }

    #[test]
    fn mixed_graph() {
        // 0 -> 1 <-> 2, 0 -> 3, 3 -> 4 <-> 5
        let adj = vec![vec![1, 3], vec![2], vec![1], vec![4], vec![5], vec![4]];
        let sccs = sccs_of(adj);
        let pos = |x: usize| sccs.iter().position(|s| s.contains(&x)).unwrap();
        assert_eq!(pos(1), pos(2));
        assert_eq!(pos(4), pos(5));
        assert!(pos(1) < pos(0));
        assert!(pos(4) < pos(3));
        assert!(pos(3) < pos(0));
    }

    #[test]
    fn self_loop_is_singleton_component() {
        let sccs = sccs_of(vec![vec![0]]);
        assert_eq!(sccs, vec![vec![0]]);
    }

    #[test]
    fn empty_graph() {
        let sccs = sccs_of(vec![]);
        assert!(sccs.is_empty());
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        // 10_000-long chain; the iterative implementation must handle it.
        let n = 10_000;
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|v| if v + 1 < n { vec![v + 1] } else { vec![] })
            .collect();
        let sccs = sccs_of(adj);
        assert_eq!(sccs.len(), n);
        assert_eq!(sccs[0], vec![n - 1]);
    }

    #[test]
    fn disconnected_components() {
        let sccs = sccs_of(vec![vec![], vec![], vec![]]);
        assert_eq!(sccs.len(), 3);
    }

    #[test]
    fn triangle_cycle_with_self_loops_is_one_component() {
        // Regression: 0 -> 1 -> 2 -> 0 with self-loops (and a sink 3) must
        // be a single SCC, not {1,2} + {0}.
        let adj = vec![vec![1, 0, 3], vec![2, 1, 3], vec![0, 2, 3], vec![]];
        let sccs = sccs_of(adj);
        let pos = |x: usize| sccs.iter().position(|s| s.contains(&x)).unwrap();
        assert_eq!(pos(0), pos(1));
        assert_eq!(pos(1), pos(2));
        assert!(pos(3) < pos(0), "sink emitted first");
        assert_eq!(sccs.iter().map(|s| s.len()).max(), Some(3));
    }

    #[test]
    fn two_interlocking_cycles() {
        // 0 <-> 1, 1 <-> 2 — all one component, in reverse discovery
        // order.
        let adj = vec![vec![1], vec![0, 2], vec![1]];
        let sccs = sccs_of(adj);
        assert_eq!(sccs, vec![vec![2, 1, 0]]);
    }
}
