//! A thread rank that panics must not wedge its peers.
//!
//! Before the world-wide abort a peer blocked on the lost rank — in a
//! collective, or on a board waiting for the rank's consumption — sat out
//! its 30 s watchdog and then failed with its *own* "stuck" message. Both
//! tests bound the wait at 2 s and demand the failed rank's message; on
//! the parent commit they take 30 s and see "barrier stuck" / "wedged".

use spcg::dist::executor::{run_ranks, run_ranks_in};
use spcg::dist::{CommGroup, VectorBoard};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Runs `world`, which must panic, and returns the panic's message and how
/// long it took to arrive.
fn failure_of(world: impl FnOnce()) -> (String, Duration) {
    let start = Instant::now();
    let payload = catch_unwind(AssertUnwindSafe(world)).expect_err("a rank panicked");
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .expect("the panic of a rank carries a message");
    (message, start.elapsed())
}

#[test]
fn rank_that_panics_before_its_first_allreduce_fails_the_world_at_once() {
    let (message, took) = failure_of(|| {
        run_ranks(2, |comm| {
            if comm.rank() == 1 {
                panic!("rank 1 cannot start");
            }
            comm.allreduce_scalar(1.0)
        });
    });
    assert_eq!(message, "rank 1 cannot start");
    assert!(took < Duration::from_secs(2), "took {took:?}");
}

#[test]
fn rank_that_panics_between_post_and_complete_fails_the_world_at_once() {
    let (message, took) = failure_of(|| {
        let group = CommGroup::new(2);
        let board = VectorBoard::new(vec![0, 1, 2]).with_abort(group.abort());
        run_ranks_in(&group, |comm| {
            let board = board.handle();
            let plan = board.plan(&[1 - comm.rank()]);
            let mut halo = [0.0];
            board.post(&comm, &[1.0]);
            if comm.rank() == 1 {
                panic!("rank 1 lost its round");
            }
            // Rank 1 did publish, so this completes; the next post cannot:
            // it needs rank 1 to have consumed the round.
            board.complete_into(&comm, &plan, &mut halo);
            board.post(&comm, &[2.0]);
        });
    });
    assert_eq!(message, "rank 1 lost its round");
    assert!(took < Duration::from_secs(2), "took {took:?}");
}
