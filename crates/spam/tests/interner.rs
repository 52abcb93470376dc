//! The symbol interner stays off the LCC task path: once a phase's engine
//! pool is warm, resetting an engine, loading a task's working memory,
//! running it to quiescence and harvesting it take the interner lock zero
//! times. (Its own test binary: the call counter is process-wide, so no
//! other test may run beside it.)

use ops5::symbol::interner_calls;
use spam::lcc::{decompose, LccPool, Level};
use spam::rtf::run_rtf;
use spam::rules::SpamProgram;
use std::sync::Arc;

#[test]
fn pooled_lcc_tasks_make_no_interner_calls() {
    let sp = SpamProgram::build();
    let scene = Arc::new(spam::generate_scene(&spam::datasets::dc().spec));
    let fragments = Arc::new(run_rtf(&sp, &scene).fragments);
    let pool = LccPool::new(&sp, &scene, &fragments);
    for level in [Level::L4, Level::L3, Level::L2, Level::L1] {
        let units = decompose(&scene, &fragments, level);
        // The first task builds the pool's engine: construction interns.
        pool.run(&units[0], None, None);
        for unit in units.iter().skip(1).take(40) {
            let before = interner_calls();
            let r = pool.run(unit, None, None);
            assert!(r.firings > 0);
            assert_eq!(
                interner_calls(),
                before,
                "{}: reset → load → run → harvest took the interner lock",
                unit.label()
            );
        }
    }
    // Control: a fresh engine resolves its symbols by name, so the counter
    // does see interning when it happens.
    let before = interner_calls();
    spam::lcc::run_lcc_unit(
        &sp,
        &scene,
        &fragments,
        &decompose(&scene, &fragments, Level::L3)[0],
    );
    assert!(interner_calls() > before, "the counter must count");
}
