//! Property-based tests for the scheduling substrate: queue invariants,
//! event ordering, batch-policy guarantees, and device accounting.

use ffsva_sched::{
    spawn_stage_pool, BatchPolicy, Device, DeviceKind, EventQueue, FeedbackQueue, ModelKey,
    PoolPolicy, PoolSlot, PoolTelemetry, SimQueue,
};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The queue never exceeds its bound and preserves FIFO order for any
    /// interleaving of pushes and pops.
    #[test]
    fn sim_queue_bounded_fifo(cap in 1usize..16, ops in proptest::collection::vec(any::<bool>(), 0..200)) {
        let mut q = SimQueue::new(cap);
        let mut model: std::collections::VecDeque<u32> = Default::default();
        let mut next = 0u32;
        for push in ops {
            if push {
                let r = q.push(next);
                if model.len() < cap {
                    prop_assert!(r.is_ok());
                    model.push_back(next);
                } else {
                    prop_assert!(r.is_err());
                }
                next += 1;
            } else {
                prop_assert_eq!(q.pop(), model.pop_front());
            }
            prop_assert!(q.len() <= cap);
            prop_assert_eq!(q.len(), model.len());
        }
    }

    /// Events pop in non-decreasing time order for arbitrary schedules, and
    /// all scheduled events are delivered.
    #[test]
    fn event_queue_sorted(times in proptest::collection::vec(0.0f64..1e6, 1..100)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut last = f64::NEG_INFINITY;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// Batch policies never take more than is queued nor more than the
    /// nominal size, and the dynamic policy never stalls on a non-empty queue.
    #[test]
    fn batch_policy_take_bounds(size in 0usize..64, queued in 0usize..256, cap in 1usize..64) {
        for policy in [
            BatchPolicy::Static { size },
            BatchPolicy::Feedback { size },
            BatchPolicy::Dynamic { size },
        ] {
            if let Some(n) = policy.take(queued, cap) {
                prop_assert!(n >= 1);
                prop_assert!(n <= queued.max(1));
                prop_assert!(n <= size.max(1).max(cap));
            }
        }
        let dynamic = BatchPolicy::Dynamic { size };
        if queued > 0 {
            prop_assert!(dynamic.take(queued, cap).is_some());
        } else {
            prop_assert!(dynamic.take(0, cap).is_none());
        }
    }

    /// Device time is causal and additive: completions never start before
    /// the request or before prior work, and busy time sums service times.
    #[test]
    fn device_invocations_causal(jobs in proptest::collection::vec((0.0f64..1e5, 1usize..16), 1..40)) {
        let mut d = Device::new("gpu", DeviceKind::Gpu, 1 << 30);
        let mut prev_end = 0.0f64;
        let mut total_service = 0.0f64;
        for (now, n) in jobs {
            let c = d.invoke(ModelKey::TYolo, n, 100.0, 50.0, now);
            prop_assert!(c.start_us >= now);
            prop_assert!(c.start_us >= prev_end);
            prop_assert!(c.end_us > c.start_us);
            total_service += c.end_us - c.start_us;
            prev_end = c.end_us;
        }
        prop_assert!((d.busy_time_us() - total_service).abs() < 1e-6);
    }

    /// pop_up_to returns at most n items, in order.
    #[test]
    fn sim_queue_pop_up_to_ordered(n in 0usize..20, fill in 0usize..20) {
        let mut q = SimQueue::new(64);
        for i in 0..fill {
            q.push(i).unwrap();
        }
        let got = q.pop_up_to(n);
        prop_assert!(got.len() <= n);
        prop_assert_eq!(got.len(), n.min(fill));
        for (k, v) in got.iter().enumerate() {
            prop_assert_eq!(*v, k);
        }
    }

    /// `try_push` enforces the bound exactly: the queue holds at most `cap`
    /// items, rejected pushes count as backpressure, and draining yields the
    /// accepted prefix in FIFO order.
    #[test]
    fn feedback_queue_try_push_respects_bound(cap in 1usize..8, extra in 1usize..8) {
        let q: FeedbackQueue<usize> = FeedbackQueue::new(cap);
        for i in 0..cap {
            prop_assert!(q.try_push(i).is_ok());
        }
        for i in 0..extra {
            prop_assert!(q.try_push(cap + i).is_err());
            prop_assert_eq!(q.len(), cap);
        }
        let drained = q.try_pop_up_to(cap + extra);
        prop_assert_eq!(drained, (0..cap).collect::<Vec<_>>());
        let s = q.stats();
        prop_assert_eq!(s.pushed, cap as u64);
        prop_assert_eq!(s.max_depth, cap);
        prop_assert!(s.backpressure_events >= extra as u64);
    }

    /// The dynamic policy takes exactly `min(queued, size)` — so it never
    /// exceeds the batch size and never blocks on a non-empty queue.
    #[test]
    fn dynamic_policy_takes_min_and_never_blocks(size in 0usize..64, queued in 1usize..256, cap in 1usize..64) {
        let p = BatchPolicy::Dynamic { size };
        let took = p.take(queued, cap);
        prop_assert_eq!(took, Some(queued.min(size.max(1))));
    }
}

// Threaded invariants get fewer, bigger cases: each one spins up real threads.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under a real producer thread, a `FeedbackQueue` never exceeds its
    /// bound (blocking `push` waits instead of overflowing) and delivery is
    /// FIFO end to end.
    #[test]
    fn feedback_queue_bounded_fifo_across_threads(cap in 1usize..8, n in 1usize..64) {
        let q: FeedbackQueue<usize> = FeedbackQueue::new(cap);
        let producer = {
            let q = q.clone();
            std::thread::spawn(move || {
                for i in 0..n {
                    q.push(i).expect("queue closed early");
                }
            })
        };
        let mut got = Vec::with_capacity(n);
        for _ in 0..n {
            got.push(q.pop().expect("producer sends exactly n"));
        }
        producer.join().unwrap();
        prop_assert_eq!(got, (0..n).collect::<Vec<_>>());
        let s = q.stats();
        prop_assert_eq!(s.pushed, n as u64);
        prop_assert_eq!(s.popped, n as u64);
        prop_assert!(s.max_depth <= cap, "depth {} exceeded bound {}", s.max_depth, cap);
    }

    /// A dynamic batch stage drains everything the moment items are
    /// available: every batch is 1..=size items, nothing is lost, and order
    /// is preserved.
    #[test]
    fn dynamic_batch_stage_bounded_batches_no_loss(size in 1usize..8, n in 1usize..40) {
        let input: FeedbackQueue<usize> = FeedbackQueue::new(8);
        let output: FeedbackQueue<usize> = FeedbackQueue::new(64);
        let batch_sizes: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let recorder = Arc::clone(&batch_sizes);
        let pool = spawn_stage_pool(
            "snm",
            PoolPolicy { workers: 1, restart_budget: 0, backoff: Duration::ZERO },
            vec![PoolSlot::plain(
                input.clone(),
                output.clone(),
                Some(BatchPolicy::Dynamic { size }),
                move |batch: Vec<usize>, _: &mut ()| {
                    recorder.lock().unwrap().push(batch.len());
                    batch
                },
            )],
            vec![()],
            PoolTelemetry::noop(),
        );
        for i in 0..n {
            input.push(i).expect("stage closed early");
        }
        input.close();
        let mut got = Vec::with_capacity(n);
        while let Some(v) = output.pop() {
            got.push(v);
        }
        let outcomes = pool.join();
        prop_assert!(!outcomes[0].gave_up(), "stage failed");
        prop_assert_eq!(outcomes[0].processed(), n as u64);
        prop_assert_eq!(got, (0..n).collect::<Vec<_>>());
        let sizes = batch_sizes.lock().unwrap();
        prop_assert_eq!(sizes.iter().sum::<usize>(), n);
        for &b in sizes.iter() {
            prop_assert!((1..=size).contains(&b), "batch of {} with size {}", b, size);
        }
    }
}
