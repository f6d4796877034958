//! An allocator that counts heap allocations per thread, so that the
//! test runner's own threads do not disturb the count. A test binary
//! that counts installs it with one line, `#[global_allocator] static
//! GLOBAL: Counting = Counting;`, and every other test binary keeps the
//! system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards every call to [`System`], counting allocations and growing
/// reallocations on the calling thread.
pub struct Counting;

thread_local! {
    /// Allocations (and growing reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only a `const`-initialised
// thread-local `Cell` and never allocates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations (and reallocations) this thread has made so far; 0
/// forever unless the binary installed [`Counting`].
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}
