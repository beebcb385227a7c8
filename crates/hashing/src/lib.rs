//! Hash functions used by Correlation Sketches (Santos et al., SIGMOD 2021).
//!
//! The sketch construction in the paper composes two hash functions:
//!
//! * `h` — a (practically) collision-free hash that maps key values to
//!   distinct integers, used as the tuple identifier stored in the sketch.
//!   The paper uses the 32-bit **MurmurHash3** function; this crate uses
//!   the low 64 bits of its 128-bit x64 variant ([`murmur3_x64_128`]),
//!   because 32-bit identifiers start to collide at ~65k distinct keys
//!   and a sketch stores a 64-bit identifier per entry either way.
//! * `h_u` — a hash that maps the integers produced by `h` uniformly at
//!   random into the unit interval `[0, 1)`. The paper uses **Fibonacci
//!   hashing** (golden-ratio multiplicative hashing, Knuth TAOCP §6.4),
//!   implemented here as [`fibonacci::fib_hash_u64`] /
//!   [`fibonacci::unit_hash_u64`].
//!
//! The composition `g(k) = h_u(h(k))` maps keys uniformly into `[0, 1)`; a
//! sketch keeps the tuples whose keys have the *n smallest* values of
//! `g(k)`. Because the same `g` is used for every table, two sketches built
//! independently are biased towards containing the *same* keys, which is
//! what makes sketch joins large enough to estimate correlations
//! (Section 3.1 of the paper).
//!
//! Everything in this crate is implemented from scratch (no external hashing
//! crates) and verified against the reference MurmurHash3 test vectors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// R5 (README "Static analysis"): key identity reads no clock.
#![deny(clippy::disallowed_types)]

pub mod fibonacci;
pub mod key;
pub mod murmur3;

pub use fibonacci::{fib_hash_u64, unit_hash_u64};
pub use key::{KeyHash, KeyHasher, TupleHasher};
pub use murmur3::{fmix64, murmur3_x64_128};
