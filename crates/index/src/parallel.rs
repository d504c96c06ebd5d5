//! Scoped-thread fan-out shared across the workspace's bulk paths.
//!
//! Both the batched embedding pipeline (`tabbin_core::batch`) and the
//! store's batched queries ([`crate::ShardedStore::search_batch_probed`])
//! dispatch the same way: chunk a task list across crossbeam scoped workers
//! once the batch is big enough to amortize thread spawn, preserving input
//! order. This module is the single implementation both lean on.

/// Task count at which work fans out across worker threads. Below this,
/// thread spawn overhead beats the win.
pub const PARALLEL_TASK_THRESHOLD: usize = 8;

/// Upper bound on worker threads.
const MAX_WORKERS: usize = 8;

fn worker_count(tasks: usize) -> usize {
    if tasks < PARALLEL_TASK_THRESHOLD {
        return 1;
    }
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(2).min(MAX_WORKERS).min(tasks)
}

/// Maps `f` over chunks of `items` across scoped worker threads (serially
/// for small task counts), preserving input order in the flattened output.
///
/// # Panics
/// Propagates panics from `f` at worker join.
pub fn par_chunk_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> Vec<R> + Sync,
{
    let workers = worker_count(items.len());
    if workers <= 1 {
        return f(items);
    }
    let chunk = items.len().div_ceil(workers);
    let f = &f;
    crossbeam::scope(|scope| {
        let handles: Vec<_> =
            items.chunks(chunk).map(|part| scope.spawn(move |_| f(part))).collect();
        let mut out = Vec::with_capacity(items.len());
        for h in handles {
            out.extend(h.join().expect("parallel worker panicked"));
        }
        out
    })
    .expect("parallel scope failed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_across_workers() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_chunk_map(&items, |part| part.iter().map(|x| x * 2).collect());
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn small_batches_run_serially() {
        let items = [1, 2, 3];
        let out = par_chunk_map(&items, |part| part.to_vec());
        assert_eq!(out, vec![1, 2, 3]);
    }
}
