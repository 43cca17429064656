//! Barnes–Hut N-body: the paper's canonical "trees (N-body codes)"
//! irregular workload.
//!
//! A 3-D octree is built over the bodies; forces are evaluated with the
//! standard Barnes–Hut multipole acceptance criterion (open a cell when
//! `size / distance > theta`, otherwise use its center of mass). The tree
//! is deliberately a plain indexed arena so distributed drivers can ship
//! subtrees by slicing node ranges.

use serde::{Deserialize, Serialize};

/// Gravitational softening to avoid singular forces.
pub const SOFTENING: f64 = 1e-3;

/// A point mass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Body {
    /// Position.
    pub pos: [f64; 3],
    /// Velocity.
    pub vel: [f64; 3],
    /// Mass.
    pub mass: f64,
}

impl Body {
    /// Body at rest.
    pub fn at(pos: [f64; 3], mass: f64) -> Body {
        Body {
            pos,
            vel: [0.0; 3],
            mass,
        }
    }
}

/// Generate `n` bodies in a Plummer-like cluster, deterministic in `seed`.
pub fn make_cluster(n: usize, seed: u64) -> Vec<Body> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            // Rejection-sample a ball, bias density toward the center.
            loop {
                let p = [
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                ];
                let r2: f64 = p.iter().map(|x| x * x).sum();
                if r2 <= 1.0 {
                    let shrink = 0.3 + 0.7 * r2.sqrt();
                    break Body::at(
                        [p[0] * shrink, p[1] * shrink, p[2] * shrink],
                        1.0 / n as f64,
                    );
                }
            }
        })
        .collect()
}

/// One octree node in the arena.
#[derive(Debug, Clone)]
pub struct Node {
    /// Cell center.
    pub center: [f64; 3],
    /// Cell half-width.
    pub half: f64,
    /// Total mass under this node.
    pub mass: f64,
    /// Center of mass under this node.
    pub com: [f64; 3],
    /// Child arena indices (0 = none; the root is index 0 so 0 can double
    /// as the null sentinel for children).
    pub children: [u32; 8],
    /// Body index when this is a leaf holding exactly one body.
    pub body: Option<u32>,
    /// Number of bodies under this node.
    pub count: u32,
}

impl Node {
    fn empty(center: [f64; 3], half: f64) -> Node {
        Node {
            center,
            half,
            mass: 0.0,
            com: [0.0; 3],
            children: [0; 8],
            body: None,
            count: 0,
        }
    }

    /// True if the node has no children (holds ≤ 1 body).
    pub fn is_leaf(&self) -> bool {
        self.children.iter().all(|&c| c == 0)
    }
}

/// The octree: an arena of nodes, root at index 0.
#[derive(Debug, Clone)]
pub struct Octree {
    /// Node arena; `nodes[0]` is the root.
    pub nodes: Vec<Node>,
    /// Levels below the root: what sizes [`Octree::force_on`]'s stack.
    depth: usize,
}

impl Octree {
    /// Build over `bodies`.
    pub fn build(bodies: &[Body]) -> Octree {
        // Bounding cube.
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for b in bodies {
            #[allow(clippy::needless_range_loop)]
            for d in 0..3 {
                lo[d] = lo[d].min(b.pos[d]);
                hi[d] = hi[d].max(b.pos[d]);
            }
        }
        let center = [
            (lo[0] + hi[0]) / 2.0,
            (lo[1] + hi[1]) / 2.0,
            (lo[2] + hi[2]) / 2.0,
        ];
        let half = (0..3)
            .map(|d| (hi[d] - lo[d]) / 2.0)
            .fold(1e-12f64, f64::max)
            * 1.0001;
        let mut tree = Octree {
            nodes: vec![Node::empty(center, half)],
            depth: 0,
        };
        for (i, b) in bodies.iter().enumerate() {
            tree.insert(0, i as u32, bodies, b.pos);
        }
        tree.summarize(0, bodies);
        tree.depth = tree.depth_below(0);
        tree
    }

    /// Levels below `node`.
    fn depth_below(&self, node: u32) -> usize {
        let children = self.nodes[node as usize].children.iter();
        let below = children
            .filter(|&&c| c != 0)
            .map(|&c| self.depth_below(c) + 1);
        below.max().unwrap_or(0)
    }

    fn octant(center: &[f64; 3], p: &[f64; 3]) -> usize {
        let mut o = 0;
        for d in 0..3 {
            if p[d] >= center[d] {
                o |= 1 << d;
            }
        }
        o
    }

    fn child_center(center: &[f64; 3], half: f64, o: usize) -> [f64; 3] {
        let q = half / 2.0;
        [
            center[0] + if o & 1 != 0 { q } else { -q },
            center[1] + if o & 2 != 0 { q } else { -q },
            center[2] + if o & 4 != 0 { q } else { -q },
        ]
    }

    fn insert(&mut self, node: u32, body_idx: u32, bodies: &[Body], pos: [f64; 3]) {
        let ni = node as usize;
        self.nodes[ni].count += 1;
        if self.nodes[ni].is_leaf() {
            match self.nodes[ni].body {
                None => {
                    self.nodes[ni].body = Some(body_idx);
                    return;
                }
                Some(prev) => {
                    // Split: push the resident body down, then continue
                    // inserting the new one.
                    // Degenerate case: coincident points would recurse
                    // forever; stop splitting below a tiny cell.
                    if self.nodes[ni].half < 1e-12 {
                        // Keep as multi-body leaf: drop resident marker; the
                        // summarize pass will use counts and masses only.
                        return;
                    }
                    self.nodes[ni].body = None;
                    let ppos = bodies[prev as usize].pos;
                    let o = Self::octant(&self.nodes[ni].center, &ppos);
                    let child = self.ensure_child(node, o);
                    // Re-insert without re-counting this subtree's root.
                    self.insert_nocount_root(child, prev, bodies, ppos);
                }
            }
        }
        let o = Self::octant(&self.nodes[ni].center, &pos);
        let child = self.ensure_child(node, o);
        self.insert_nocount_root(child, body_idx, bodies, pos);
    }

    fn insert_nocount_root(&mut self, node: u32, body_idx: u32, bodies: &[Body], pos: [f64; 3]) {
        self.insert(node, body_idx, bodies, pos);
    }

    fn ensure_child(&mut self, node: u32, o: usize) -> u32 {
        let ni = node as usize;
        if self.nodes[ni].children[o] != 0 {
            return self.nodes[ni].children[o];
        }
        let c = Self::child_center(&self.nodes[ni].center, self.nodes[ni].half, o);
        let half = self.nodes[ni].half / 2.0;
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node::empty(c, half));
        self.nodes[ni].children[o] = idx;
        idx
    }

    fn summarize(&mut self, node: u32, bodies: &[Body]) -> (f64, [f64; 3]) {
        let ni = node as usize;
        if self.nodes[ni].is_leaf() {
            if let Some(b) = self.nodes[ni].body {
                let b = &bodies[b as usize];
                self.nodes[ni].mass = b.mass;
                self.nodes[ni].com = b.pos;
            }
            return (self.nodes[ni].mass, self.nodes[ni].com);
        }
        let mut mass = 0.0;
        let mut com = [0.0; 3];
        let children = self.nodes[ni].children;
        for &c in children.iter().filter(|&&c| c != 0) {
            let (m, cm) = self.summarize(c, bodies);
            mass += m;
            #[allow(clippy::needless_range_loop)]
            for d in 0..3 {
                com[d] += m * cm[d];
            }
        }
        if mass > 0.0 {
            for d in com.iter_mut() {
                *d /= mass;
            }
        }
        self.nodes[ni].mass = mass;
        self.nodes[ni].com = com;
        (mass, com)
    }

    /// Barnes–Hut force on a body at `pos` (mass excluded from itself by
    /// the softened kernel; self-interaction contributes ~0).
    pub fn force_on(&self, pos: [f64; 3], theta: f64) -> [f64; 3] {
        let mut acc = [0.0; 3];
        // Each level opened leaves at most seven siblings on the stack.
        let mut stack = Vec::with_capacity(7 * self.depth + 1);
        stack.push(0u32);
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n as usize];
            if node.count == 0 || node.mass == 0.0 {
                continue;
            }
            let dx = [
                node.com[0] - pos[0],
                node.com[1] - pos[1],
                node.com[2] - pos[2],
            ];
            let d2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2] + SOFTENING * SOFTENING;
            let d = d2.sqrt();
            if node.is_leaf() || (node.half * 2.0) / d < theta {
                let f = node.mass / (d2 * d);
                for k in 0..3 {
                    acc[k] += f * dx[k];
                }
            } else {
                for &c in node.children.iter().filter(|&&c| c != 0) {
                    stack.push(c);
                }
            }
        }
        acc
    }

    /// Nodes in the arena.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a tree with no nodes (never produced by `build`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Direct O(N²) force evaluation (reference for correctness checks).
pub fn direct_forces(bodies: &[Body]) -> Vec<[f64; 3]> {
    let n = bodies.len();
    let mut acc = vec![[0.0; 3]; n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let dx = [
                bodies[j].pos[0] - bodies[i].pos[0],
                bodies[j].pos[1] - bodies[i].pos[1],
                bodies[j].pos[2] - bodies[i].pos[2],
            ];
            let d2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2] + SOFTENING * SOFTENING;
            let d = d2.sqrt();
            let f = bodies[j].mass / (d2 * d);
            for k in 0..3 {
                acc[i][k] += f * dx[k];
            }
        }
    }
    acc
}

/// One leapfrog step for all bodies given accelerations.
pub fn step(bodies: &mut [Body], acc: &[[f64; 3]], dt: f64) {
    for (b, a) in bodies.iter_mut().zip(acc.iter()) {
        #[allow(clippy::needless_range_loop)]
        for k in 0..3 {
            b.vel[k] += a[k] * dt;
            b.pos[k] += b.vel[k] * dt;
        }
    }
}

/// Total kinetic + potential energy (slow; diagnostics only).
pub fn total_energy(bodies: &[Body]) -> f64 {
    let mut e = 0.0;
    for (i, b) in bodies.iter().enumerate() {
        let v2: f64 = b.vel.iter().map(|v| v * v).sum();
        e += 0.5 * b.mass * v2;
        for other in bodies.iter().skip(i + 1) {
            let d2: f64 = b
                .pos
                .iter()
                .zip(other.pos.iter())
                .map(|(a, c)| (a - c) * (a - c))
                .sum::<f64>()
                + SOFTENING * SOFTENING;
            e -= b.mass * other.mass / d2.sqrt();
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_is_deterministic_and_bounded() {
        let a = make_cluster(100, 7);
        let b = make_cluster(100, 7);
        assert_eq!(a.len(), 100);
        assert_eq!(a[17].pos, b[17].pos);
        for body in &a {
            let r2: f64 = body.pos.iter().map(|x| x * x).sum();
            assert!(r2 <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn tree_counts_all_bodies() {
        let bodies = make_cluster(500, 1);
        let tree = Octree::build(&bodies);
        assert_eq!(tree.nodes[0].count, 500);
        let total_mass: f64 = bodies.iter().map(|b| b.mass).sum();
        assert!((tree.nodes[0].mass - total_mass).abs() < 1e-9);
    }

    #[test]
    fn root_com_matches_direct() {
        let bodies = make_cluster(200, 3);
        let tree = Octree::build(&bodies);
        let m: f64 = bodies.iter().map(|b| b.mass).sum();
        let mut com = [0.0; 3];
        for b in &bodies {
            #[allow(clippy::needless_range_loop)]
            for d in 0..3 {
                com[d] += b.mass * b.pos[d] / m;
            }
        }
        #[allow(clippy::needless_range_loop)]
        for d in 0..3 {
            assert!((tree.nodes[0].com[d] - com[d]).abs() < 1e-9, "dim {d}");
        }
    }

    #[test]
    fn bh_force_approximates_direct() {
        let bodies = make_cluster(300, 11);
        let tree = Octree::build(&bodies);
        let direct = direct_forces(&bodies);
        // Relative RMS error at theta = 0.5 should be small.
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, b) in bodies.iter().enumerate() {
            let bh = tree.force_on(b.pos, 0.5);
            for k in 0..3 {
                num += (bh[k] - direct[i][k]).powi(2);
                den += direct[i][k].powi(2);
            }
        }
        let rel = (num / den).sqrt();
        assert!(rel < 0.05, "BH relative error too high: {rel}");
    }

    #[test]
    fn theta_zero_equals_direct() {
        // theta = 0 forces full opening: identical to direct sum (up to
        // self-interaction, excluded in direct but ~0 in BH due to
        // softening and zero distance).
        let bodies = make_cluster(50, 5);
        let tree = Octree::build(&bodies);
        let direct = direct_forces(&bodies);
        for (i, b) in bodies.iter().enumerate() {
            let bh = tree.force_on(b.pos, 0.0);
            for k in 0..3 {
                assert!(
                    (bh[k] - direct[i][k]).abs() < 1e-6,
                    "body {i} dim {k}: {} vs {}",
                    bh[k],
                    direct[i][k]
                );
            }
        }
    }

    #[test]
    fn coincident_bodies_do_not_hang() {
        let bodies = vec![Body::at([0.5; 3], 1.0); 4];
        let tree = Octree::build(&bodies);
        assert_eq!(tree.nodes[0].count, 4);
    }

    #[test]
    fn step_integrates() {
        let mut bodies = vec![Body::at([0.0; 3], 1.0)];
        step(&mut bodies, &[[1.0, 0.0, 0.0]], 0.5);
        assert!((bodies[0].vel[0] - 0.5).abs() < 1e-12);
        assert!((bodies[0].pos[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn energy_sane() {
        let bodies = make_cluster(50, 2);
        let e = total_energy(&bodies);
        assert!(e.is_finite());
        assert!(e < 0.0, "bound cluster should have negative energy: {e}");
    }
}
