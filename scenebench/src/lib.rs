//! Wall-clock scene benchmark for the SPAM/PSM reproduction: whole scenes
//! (RTF → LCC → FA → MODEL) in a closed loop with LCC on real worker
//! threads, every scene checked against the sequential pipeline, and a
//! traced run that splits each LCC task into engine build, WM load, run
//! and harvest. See `README.md` in this directory.

pub mod host;
pub mod scenes;
pub mod spans;
pub mod stats;
