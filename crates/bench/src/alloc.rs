//! A counting global allocator: allocation discipline as a measurement.
//!
//! Install [`CountingAlloc`] as the global allocator of a binary or
//! test target and every heap acquisition (`alloc`, `alloc_zeroed`,
//! `realloc`) increments a process-wide counter readable through
//! [`allocation_count`] and a counter of the allocating thread,
//! readable through [`thread_allocation_count`]. The decode hot
//! loop's zero-allocation guarantees are asserted against these
//! counters, and the `ftqc-bench` scenarios report `allocs_per_op`
//! from the process-wide one — a machine-independent regression signal
//! (timings vary across hosts; allocation counts do not).
//!
//! A region that runs on one thread is counted with the per-thread
//! counter: the process-wide one also sees whatever other threads
//! allocate meanwhile, such as a test harness starting the next test.
//!
//! ```ignore
//! use ftqc_bench::alloc::{thread_allocation_count, CountingAlloc};
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc::new();
//!
//! let before = thread_allocation_count();
//! hot_loop();
//! assert_eq!(thread_allocation_count() - before, 0);
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide allocation counter, shared by every [`CountingAlloc`]
/// instance so library code can read it without holding a reference to
/// the allocator static.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Whether a [`CountingAlloc`] has ever served an allocation — i.e.
/// whether [`allocation_count`] is live or will read a frozen zero.
static INSTALLED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocations made by this thread. Constant-initialised and free
    /// of a destructor, so reading or bumping it from inside the
    /// allocator never allocates.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Heap acquisitions (alloc + alloc_zeroed + realloc) since process
/// start. Monotonic; sample before and after a region and subtract.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Heap acquisitions made by the calling thread since it started.
/// Monotonic; sample before and after a region that runs on this
/// thread alone and subtract.
pub fn thread_allocation_count() -> u64 {
    THREAD_ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

/// Counts one heap acquisition in both counters.
fn count_allocation() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    if INSTALLED.load(Ordering::Relaxed) == 0 {
        INSTALLED.store(1, Ordering::Relaxed);
    }
}

/// True when a [`CountingAlloc`] is installed as the global allocator
/// (detected from the first counted allocation, which any Rust program
/// performs long before user code runs).
pub fn counting_enabled() -> bool {
    INSTALLED.load(Ordering::Relaxed) != 0
}

/// The system allocator wrapped with an allocation counter; see the
/// [module docs](self).
pub struct CountingAlloc;

impl CountingAlloc {
    /// The allocator value to place in a `#[global_allocator]` static.
    pub const fn new() -> CountingAlloc {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        CountingAlloc::new()
    }
}

// SAFETY: pure pass-through to `System` plus relaxed atomic and
// thread-local counter bumps; every GlobalAlloc contract obligation is
// delegated unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: forwarded verbatim; the caller upholds `layout`
        // validity per the GlobalAlloc contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: forwarded verbatim; the caller upholds `layout`
        // validity per the GlobalAlloc contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: forwarded verbatim; the caller guarantees `ptr` came
        // from this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller guarantees `ptr` came
        // from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
