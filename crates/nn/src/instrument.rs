//! Thread-local telemetry hook for kernel and network timings.
//!
//! The nn crate sits below the layers that own a
//! [`TelemetrySink`](rlnoc_telemetry::TelemetrySink), so instrumentation is
//! injected per thread: a caller (the explorer, a parallel worker, a bench
//! binary) [`install`]s a [`Recorder`] on the thread about to run network
//! code, and the GEMM/conv/forward paths record into it. With no recorder
//! installed — the default — every probe is one thread-local load and a
//! branch, with no allocation and no clock read, preserving the
//! zero-overhead-when-disabled contract.

use rlnoc_telemetry::{Recorder, Timer};
use std::cell::RefCell;

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs `recorder` as this thread's kernel-timing sink, returning the
/// previously installed one (flush or re-install it as appropriate).
/// Disabled recorders are not installed — the hot paths then skip probe
/// work entirely.
pub fn install(recorder: Recorder) -> Option<Recorder> {
    if !recorder.is_enabled() {
        return None;
    }
    RECORDER.with(|slot| slot.borrow_mut().replace(recorder))
}

/// Removes and returns this thread's recorder, if any. Dropping the
/// returned recorder flushes its accumulated timings.
pub fn take() -> Option<Recorder> {
    RECORDER.with(|slot| slot.borrow_mut().take())
}

/// True when a live recorder is installed on this thread.
pub fn is_active() -> bool {
    RECORDER.with(|slot| slot.borrow().is_some())
}

/// Installs `recorder` for the lifetime of the returned guard, restoring
/// whatever was previously installed (usually nothing) on drop. Panic-safe:
/// an unwinding scope still flushes the scoped recorder and puts the old
/// one back, so a panic cannot leave a stale sink installed on the thread.
pub fn install_scoped(recorder: Recorder) -> InstallGuard {
    InstallGuard {
        prev: install(recorder),
    }
}

/// RAII guard returned by [`install_scoped`]; see there.
#[derive(Debug)]
pub struct InstallGuard {
    prev: Option<Recorder>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        // Dropping the outgoing recorder flushes its timings.
        drop(take());
        if let Some(prev) = self.prev.take() {
            install(prev);
        }
    }
}

/// Starts a timer on the installed recorder (inert when none).
pub(crate) fn start() -> Timer {
    RECORDER.with(|slot| match slot.borrow().as_ref() {
        Some(rec) => rec.timer(),
        None => Timer::inert(),
    })
}

/// Records a started timer's elapsed microseconds into `name`.
pub(crate) fn record_since(name: &'static str, timer: Timer) {
    if !timer.is_started() {
        return;
    }
    RECORDER.with(|slot| {
        if let Some(rec) = slot.borrow_mut().as_mut() {
            rec.observe_timer(name, timer);
        }
    });
}

/// Records one histogram sample into `name` (no-op when inactive).
pub(crate) fn record_value(name: &'static str, value: u64) {
    RECORDER.with(|slot| {
        if let Some(rec) = slot.borrow_mut().as_mut() {
            rec.record(name, value);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlnoc_telemetry::TelemetrySink;

    #[test]
    fn install_guard_restores_previous_recorder() {
        let outer = TelemetrySink::enabled();
        let inner = TelemetrySink::enabled();
        drop(take());
        install(outer.recorder("outer"));
        {
            let _guard = install_scoped(inner.recorder("inner"));
            assert!(is_active());
            record_value("probe.samples", 1);
        }
        // Scoped recorder flushed on drop; the outer one is back.
        assert!(is_active());
        assert!(
            inner.totals().hist("probe.samples").is_some(),
            "inner recorder flushed its state"
        );
        assert!(outer.totals().hist("probe.samples").is_none());
        drop(take());
        assert!(!is_active());
    }

    #[test]
    fn install_guard_flushes_on_unwind() {
        let sink = TelemetrySink::enabled();
        drop(take());
        let unwound = std::panic::catch_unwind(|| {
            let _guard = install_scoped(sink.recorder("doomed"));
            record_value("probe.samples", 7);
            panic!("injected");
        });
        assert!(unwound.is_err());
        assert!(!is_active(), "guard removed the recorder during unwind");
        assert!(
            sink.totals().hist("probe.samples").is_some(),
            "unwound scope still flushed"
        );
    }
}
