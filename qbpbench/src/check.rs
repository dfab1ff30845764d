//! The benchmark's own output checker. It recomputes cost and the three
//! constraint families from the raw `Problem` data and never calls the
//! program's `Evaluator` or `check_feasibility`, so a fault in those cannot
//! hide a wrong answer.

use qbp_core::{ComponentId, Problem};

/// What the checker found for one assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// `α·Σ_j p[A(j)][j] + β·Σ_{(j1,j2)} a[j1][j2]·B[A(j1)][A(j2)]`, summed
    /// over ordered wire pairs as the paper does. Zero when `shape` is set.
    pub cost: i64,
    /// Partitions whose load exceeds their capacity (C1).
    pub capacity_violations: usize,
    /// Timing constraints `D(A(j1), A(j2)) > D_C(j1, j2)` (C2).
    pub timing_violations: usize,
    /// Why the assignment does not give every component exactly one
    /// existing partition (C3), if it does not.
    pub shape: Option<String>,
}

impl Verdict {
    pub fn feasible(&self) -> bool {
        self.shape.is_none() && self.capacity_violations == 0 && self.timing_violations == 0
    }

    /// One line naming every violation, for failure reports.
    pub fn describe(&self) -> String {
        match &self.shape {
            Some(why) => format!("C3 violated: {why}"),
            None => format!(
                "{} capacity and {} timing violations",
                self.capacity_violations, self.timing_violations
            ),
        }
    }
}

/// Checks `parts` (the partition index of each component) against
/// `problem`.
pub fn check(problem: &Problem, parts: &[u32]) -> Verdict {
    let (n, m) = (problem.n(), problem.m());
    let shape = if parts.len() != n {
        Some(format!("{} entries for {n} components", parts.len()))
    } else {
        parts
            .iter()
            .position(|&p| p as usize >= m)
            .map(|j| format!("component {j} in partition {} of {m}", parts[j]))
    };
    if shape.is_some() {
        return Verdict {
            cost: 0,
            capacity_violations: 0,
            timing_violations: 0,
            shape,
        };
    }
    let part = |j: ComponentId| parts[j.index()] as usize;

    let wire = problem.topology().wire_cost();
    let quadratic: i64 = problem
        .circuit()
        .edges()
        .map(|(a, b, w)| w * wire[(part(a), part(b))])
        .sum();
    let linear: i64 = problem
        .linear_cost()
        .map_or(0, |p| (0..n).map(|j| p[(parts[j] as usize, j)]).sum());
    let cost = problem.alpha() * linear + problem.beta() * quadratic;

    let mut load = vec![0u64; m];
    for (id, component) in problem.circuit().iter() {
        load[part(id)] += component.size();
    }
    let capacities = problem.topology().capacities();
    let capacity_violations = load.iter().zip(capacities).filter(|(l, c)| l > c).count();

    let delay = problem.topology().delay();
    let timing_violations = problem
        .timing()
        .iter()
        .filter(|&(a, b, limit)| delay[(part(a), part(b))] > limit)
        .count();

    Verdict {
        cost,
        capacity_violations,
        timing_violations,
        shape: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbp_core::{Circuit, PartitionTopology, ProblemBuilder, TimingConstraints};

    /// The paper's worked example (§3.3): a, b, c on a 2×2 grid with
    /// Manhattan B = D, five wires a–b, two wires b–c, and
    /// D_C(a,b) = D_C(b,c) = 1 in both directions.
    fn paper_example(capacity: u64) -> Problem {
        let mut circuit = Circuit::new();
        let a = circuit.add_component("a", 1);
        let b = circuit.add_component("b", 1);
        let c = circuit.add_component("c", 1);
        circuit.add_wires(a, b, 5).unwrap();
        circuit.add_wires(b, c, 2).unwrap();
        let mut timing = TimingConstraints::new(3);
        timing.add_symmetric(a, b, 1).unwrap();
        timing.add_symmetric(b, c, 1).unwrap();
        let topology = PartitionTopology::grid(2, 2, capacity).unwrap();
        ProblemBuilder::new(circuit, topology)
            .timing(timing)
            .build()
            .unwrap()
    }

    #[test]
    fn adjacent_placement_costs_fourteen_and_is_feasible() {
        // Partitions 0 1 / 2 3. a→0, b→1, c→3: both pairs one hop apart.
        // Ordered pairs count twice: 2·5·1 + 2·2·1 = 14.
        let v = check(&paper_example(10), &[0, 1, 3]);
        assert_eq!(v.cost, 14);
        assert!(v.feasible(), "{}", v.describe());
    }

    #[test]
    fn diagonal_placement_breaks_all_four_timing_constraints() {
        // a→0, b→3, c→0: both pairs two hops apart, so 2·5·2 + 2·2·2 = 28
        // and every directed constraint (limit 1) sees delay 2.
        let v = check(&paper_example(10), &[0, 3, 0]);
        assert_eq!(v.cost, 28);
        assert_eq!(v.timing_violations, 4);
        assert_eq!(v.capacity_violations, 0);
        assert!(!v.feasible());
    }

    #[test]
    fn co_located_components_cost_nothing_but_can_overfill() {
        let v = check(&paper_example(2), &[2, 2, 2]);
        assert_eq!(v.cost, 0);
        assert_eq!(v.timing_violations, 0);
        assert_eq!(v.capacity_violations, 1);
        assert!(check(&paper_example(3), &[2, 2, 2]).feasible());
    }

    #[test]
    fn malformed_assignments_violate_c3() {
        let p = paper_example(10);
        assert!(check(&p, &[0, 1]).shape.is_some());
        assert!(check(&p, &[0, 1, 4]).shape.is_some());
        assert!(!check(&p, &[0, 1, 4]).feasible());
    }
}
