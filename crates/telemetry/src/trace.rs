//! A lightweight span/event tracing facade.
//!
//! The [`span!`](crate::span!) and [`event!`](crate::event!) macros are
//! the producer API: they cost one relaxed atomic load when no
//! subscriber is installed, and dispatch structured records (name plus
//! typed key/value fields) to the global [`Subscriber`] when one is.
//! Span nesting is tracked per thread, so records carry parent links
//! that reconstruct the call tree even under parallel inference.
//!
//! ```
//! use hotspot_telemetry::{event, span};
//!
//! // With no subscriber installed both lines are almost free.
//! let _guard = span!("train.epoch", epoch = 3usize);
//! event!("train.rollback", epoch = 3usize, loss = f64::NAN);
//! ```
//!
//! Subscribers are installed process-wide with [`set_subscriber`], or
//! for the current thread only with [`set_thread_subscriber`] — a
//! scoped override that lets a test observe its own records while
//! other threads trace to the global subscriber (or to nothing).  See
//! [`crate::subscribers`] for the JSONL and stderr implementations.

use crate::clock::{Clock, MonotonicClock};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// One typed field value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (also used for `usize`).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (also used for `f32`; may be non-finite).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Owned string.
    Str(String),
}

macro_rules! value_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {
        $(impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::$variant(v as $conv)
            }
        })*
    };
}

value_from!(
    u64 => U64 as u64,
    u32 => U64 as u64,
    usize => U64 as u64,
    i64 => I64 as i64,
    i32 => I64 as i64,
    f64 => F64 as f64,
    f32 => F64 as f64,
);

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// A named field: `(key, value)`.
pub type Field = (&'static str, Value);

/// An instantaneous event record.
#[derive(Debug)]
pub struct EventRecord<'a> {
    /// Event name, dotted-path style (`"train.rollback"`).
    pub name: &'a str,
    /// Attached fields.
    pub fields: &'a [Field],
    /// Id of the enclosing span on this thread, if any.
    pub span: Option<u64>,
    /// Monotonic timestamp (ns since the process clock anchor).
    pub ts_ns: u64,
}

/// A span-opening record.
#[derive(Debug)]
pub struct SpanStartRecord<'a> {
    /// Process-unique span id.
    pub id: u64,
    /// Id of the parent span on this thread, if any.
    pub parent: Option<u64>,
    /// Span name.
    pub name: &'a str,
    /// Fields captured at open time.
    pub fields: &'a [Field],
    /// Monotonic timestamp of the open.
    pub ts_ns: u64,
}

/// A span-closing record.
#[derive(Debug)]
pub struct SpanEndRecord<'a> {
    /// The id from the matching [`SpanStartRecord`].
    pub id: u64,
    /// Span name (repeated so end records are self-describing).
    pub name: &'a str,
    /// Wall-clock duration between open and close.
    pub duration_ns: u64,
    /// Monotonic timestamp of the close.
    pub ts_ns: u64,
}

/// A sink for trace records.  Implementations must be thread-safe:
/// records arrive concurrently from every thread that traces.
pub trait Subscriber: Send + Sync {
    /// An instantaneous event fired.
    fn on_event(&self, event: &EventRecord<'_>);
    /// A span opened.
    fn on_span_start(&self, span: &SpanStartRecord<'_>);
    /// A span closed.
    fn on_span_end(&self, span: &SpanEndRecord<'_>);
}

/// Fast-path state: [`GLOBAL`] while a global subscriber is installed,
/// plus [`SCOPED`] per live thread-scoped subscriber on any thread.
/// Zero means nothing listens anywhere.  Updates are `Release` and the
/// [`enabled`] check is `Acquire`, the pairing the boolean flag this
/// replaces used; the subscribers themselves are read under the slot's
/// lock or from the reading thread's own thread-local.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);
const GLOBAL: usize = 1;
const SCOPED: usize = 2;
/// Monotonic span-id source (0 is reserved for "no span").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

fn subscriber_slot() -> &'static RwLock<Option<Arc<dyn Subscriber>>> {
    static SLOT: std::sync::OnceLock<RwLock<Option<Arc<dyn Subscriber>>>> =
        std::sync::OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

thread_local! {
    /// Ids of the spans currently open on this thread, innermost last.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// This thread's scoped subscriber, overriding the global one.
    static THREAD_SUB: RefCell<Option<Arc<dyn Subscriber>>> = const { RefCell::new(None) };
}

/// Installs `sub` as the process-wide subscriber, replacing any
/// previous one.  Returns the previous subscriber, if any, so tests can
/// restore it.
pub fn set_subscriber(sub: Arc<dyn Subscriber>) -> Option<Arc<dyn Subscriber>> {
    let mut slot = subscriber_slot().write().unwrap_or_else(|p| p.into_inner());
    let old = slot.replace(sub);
    ACTIVE.fetch_or(GLOBAL, Ordering::Release);
    old
}

/// Removes the process-wide subscriber, returning it.
pub fn clear_subscriber() -> Option<Arc<dyn Subscriber>> {
    let mut slot = subscriber_slot().write().unwrap_or_else(|p| p.into_inner());
    ACTIVE.fetch_and(!GLOBAL, Ordering::Release);
    slot.take()
}

/// Installs `sub` as the subscriber of the **current thread** until the
/// returned guard drops.  Records emitted on this thread go to `sub`
/// instead of the global subscriber; other threads — including pool
/// workers this thread hands work to — keep tracing to the global one.
/// Guards nest: dropping one restores the thread's previous scoped
/// subscriber.
///
/// This is how a test asserts on the events of the code it drives
/// without a process-global subscriber that sibling tests, running
/// concurrently in the same binary, would also emit into.
///
/// ```
/// use hotspot_telemetry::subscribers::CollectingSubscriber;
/// use hotspot_telemetry::{event, trace};
/// use std::sync::Arc;
///
/// let sink = Arc::new(CollectingSubscriber::new());
/// {
///     let _scope = trace::set_thread_subscriber(sink.clone());
///     event!("drift.detected", tvd = 0.9f64);
/// }
/// event!("drift.detected", tvd = 0.9f64); // after the scope: not captured
/// assert_eq!(sink.records().len(), 1);
/// ```
pub fn set_thread_subscriber(sub: Arc<dyn Subscriber>) -> ThreadSubscriberGuard {
    let prev = THREAD_SUB.with(|s| s.borrow_mut().replace(sub));
    ACTIVE.fetch_add(SCOPED, Ordering::Release);
    ThreadSubscriberGuard {
        prev,
        _not_send: std::marker::PhantomData,
    }
}

/// Restores the thread's previous scoped subscriber on drop (see
/// [`set_thread_subscriber`]).  `!Send`: it must drop on the thread
/// that installed it.
#[must_use = "dropping the guard immediately uninstalls the subscriber"]
pub struct ThreadSubscriberGuard {
    prev: Option<Arc<dyn Subscriber>>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ThreadSubscriberGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        // Runs during thread-local teardown only if the guard was
        // leaked into another thread-local; nothing to restore then.
        let _ = THREAD_SUB.try_with(|s| *s.borrow_mut() = prev);
        ACTIVE.fetch_sub(SCOPED, Ordering::Release);
    }
}

/// `true` when a subscriber would receive records emitted on this
/// thread — the macros' fast-path check.  One atomic load when nothing
/// is installed anywhere; a thread-local read only while some thread
/// holds a scoped subscriber and no global one is installed.
#[inline]
pub fn enabled() -> bool {
    match ACTIVE.load(Ordering::Acquire) {
        0 => false,
        a if a & GLOBAL != 0 => true,
        _ => THREAD_SUB
            .try_with(|s| s.borrow().is_some())
            .unwrap_or(false),
    }
}

/// Calls `f` with this thread's scoped subscriber if it has one, else
/// with the global subscriber, if any.
fn with_subscriber(f: impl FnOnce(&dyn Subscriber)) {
    if ACTIVE.load(Ordering::Acquire) >= SCOPED {
        if let Ok(Some(sub)) = THREAD_SUB.try_with(|s| s.borrow().clone()) {
            return f(&*sub);
        }
    }
    let slot = subscriber_slot().read().unwrap_or_else(|p| p.into_inner());
    if let Some(sub) = slot.as_deref() {
        f(sub);
    }
}

/// Innermost open span id on this thread.
pub fn current_span() -> Option<u64> {
    SPAN_STACK.with(|s| s.borrow().last().copied())
}

/// Dispatches an event to the global subscriber (no-op when none is
/// installed).  Prefer the [`event!`](crate::event!) macro, which
/// skips field construction entirely on the disabled path.
pub fn dispatch_event(name: &str, fields: &[Field]) {
    if !enabled() {
        return;
    }
    let record = EventRecord {
        name,
        fields,
        span: current_span(),
        ts_ns: MonotonicClock.now_ns(),
    };
    with_subscriber(|s| s.on_event(&record));
}

/// Dispatches an event to one explicit subscriber, bypassing the
/// global registration.  Used for per-run sinks (e.g. verbose training
/// progress to stderr) that must not perturb process-wide state.
pub fn dispatch_event_to(sub: &dyn Subscriber, name: &str, fields: &[Field]) {
    sub.on_event(&EventRecord {
        name,
        fields,
        span: current_span(),
        ts_ns: MonotonicClock.now_ns(),
    });
}

/// Opens a span: emits the start record and returns a guard that emits
/// the end record (with duration) when dropped.  Prefer the
/// [`span!`](crate::span!) macro.
pub fn span(name: &'static str, fields: &[Field]) -> SpanGuard {
    if !enabled() {
        return SpanGuard::disabled();
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = current_span();
    let start_ns = MonotonicClock.now_ns();
    let record = SpanStartRecord {
        id,
        parent,
        name,
        fields,
        ts_ns: start_ns,
    };
    with_subscriber(|s| s.on_span_start(&record));
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    SpanGuard {
        id: Some(id),
        name,
        start_ns,
        // Thread-locals pin the guard to its opening thread.
        _not_send: std::marker::PhantomData,
    }
}

/// Closes its span on drop.  Must be dropped on the thread that opened
/// it (enforced by the type being `!Send`).
#[must_use = "dropping the guard immediately closes the span"]
#[derive(Debug)]
pub struct SpanGuard {
    id: Option<u64>,
    name: &'static str,
    start_ns: u64,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl SpanGuard {
    /// An inert guard for the no-subscriber path: carries no id and
    /// emits nothing on drop.
    pub fn disabled() -> Self {
        SpanGuard {
            id: None,
            name: "",
            start_ns: 0,
            _not_send: std::marker::PhantomData,
        }
    }

    /// The span id, or `None` for an inert guard.
    pub fn id(&self) -> Option<u64> {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Guards are dropped in reverse open order (they are owned
            // values on the stack), so the innermost id is ours; be
            // defensive about leaked/forgotten guards anyway.
            if let Some(pos) = stack.iter().rposition(|&sid| sid == id) {
                stack.truncate(pos);
            }
        });
        let end_ns = MonotonicClock.now_ns();
        let record = SpanEndRecord {
            id,
            name: self.name,
            duration_ns: end_ns.saturating_sub(self.start_ns),
            ts_ns: end_ns,
        };
        with_subscriber(|s| s.on_span_end(&record));
    }
}

/// Emits a structured event through the global subscriber.
///
/// `event!("name", key = value, ...)` — keys become field names, values
/// anything with `Into<`[`Value`]`>`.  Costs one atomic load when no
/// subscriber is installed (fields are not even constructed).
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::trace::enabled() {
            $crate::trace::dispatch_event(
                $name,
                &[$((stringify!($key), $crate::trace::Value::from($val))),*],
            );
        }
    };
}

/// Opens a span and returns its [`SpanGuard`]; the span closes (and
/// reports its duration) when the guard drops.
///
/// `let _g = span!("name", key = value, ...);`
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::trace::enabled() {
            $crate::trace::span(
                $name,
                &[$((stringify!($key), $crate::trace::Value::from($val))),*],
            )
        } else {
            $crate::trace::SpanGuard::disabled()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subscribers::{CollectingSubscriber, Record};

    fn names(sink: &CollectingSubscriber) -> Vec<String> {
        sink.records()
            .into_iter()
            .map(|r| match r {
                Record::Event { name, .. } => name,
                Record::SpanStart { name, .. } => format!("{name}:start"),
                Record::SpanEnd { name, .. } => format!("{name}:end"),
            })
            .collect()
    }

    #[test]
    fn thread_subscriber_sees_only_its_thread_and_nests() {
        let outer = Arc::new(CollectingSubscriber::new());
        let inner = Arc::new(CollectingSubscriber::new());
        {
            let _outer = set_thread_subscriber(outer.clone());
            assert!(enabled());
            crate::event!("scoped.outer");
            std::thread::spawn(|| crate::event!("scoped.other_thread"))
                .join()
                .expect("emitter thread");
            {
                let _inner = set_thread_subscriber(inner.clone());
                let _span = crate::span!("scoped.span");
                crate::event!("scoped.inner");
            }
            crate::event!("scoped.outer_again");
        }
        crate::event!("scoped.after");
        assert_eq!(names(&outer), ["scoped.outer", "scoped.outer_again"]);
        assert_eq!(
            names(&inner),
            ["scoped.span:start", "scoped.inner", "scoped.span:end"]
        );
    }
}
