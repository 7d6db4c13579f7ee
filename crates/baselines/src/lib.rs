//! # swn-baselines — reference network models
//!
//! Every comparator the paper's argument rests on, built from scratch:
//!
//! * [`ring_lattice`] — regular lattices (Θ(n) routing; the ordered end
//!   of the Watts–Strogatz spectrum);
//! * [`kleinberg`] — the static harmonic small world the protocol
//!   converges to, plus the uniform-shortcut contrast (polynomial greedy
//!   routing);
//! * [`watts_strogatz`] — the rewiring model behind the C(p)/L(p) figure;
//! * [`chord`] — the uniformly structured overlay the paper positions
//!   small worlds against;
//! * [`random_graph`] — Erdős–Rényi G(n,m)/G(n,p);
//! * [`chaintreau`] — the pure (non-self-stabilizing) move-and-forget
//!   process of the paper's reference \[4\], the ground truth for the
//!   long-range-link length distribution, on the ring and on the k-D
//!   tori of [`torus`].

#![forbid(unsafe_code)]
// Libraries return strings or take writers; only binaries print.
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

pub mod chaintreau;
pub mod chord;
pub mod kleinberg;
pub mod random_graph;
pub mod ring_lattice;
pub mod torus;
pub mod watts_strogatz;
