//! Trace record structure: what one flight-recorder entry says.

use std::borrow::Cow;
use std::rc::Rc;

use crate::clock::Cycles;
use crate::span::SpanId;

/// Which architectural layer of the kernel emitted a record or owns a
/// span. Mirrors the crate structure of the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Layer {
    /// Simulated hardware: gate transfers, fault dispatch.
    Hw,
    /// The reference monitor (gate entries, verdicts).
    Monitor,
    /// Virtual memory / page control.
    Vm,
    /// Processes: IPC and the traffic controller.
    Procs,
    /// File system: KST and ACL machinery.
    Fs,
    /// Device I/O: interrupts and buffers.
    Io,
    /// Everything else inside the kernel core.
    Kernel,
}

impl Layer {
    /// The canonical lower-case name of the layer — the single source of
    /// truth for every stringification (JSON snapshots, quantile keys,
    /// `Display`) and for [`Layer::from_str_opt`].
    pub fn name(self) -> &'static str {
        match self {
            Layer::Hw => "hw",
            Layer::Monitor => "monitor",
            Layer::Vm => "vm",
            Layer::Procs => "procs",
            Layer::Fs => "fs",
            Layer::Io => "io",
            Layer::Kernel => "kernel",
        }
    }

    /// Stable lower-case name, used in JSON snapshots (alias of
    /// [`Layer::name`], kept for callers of the historical spelling).
    pub fn as_str(self) -> &'static str {
        self.name()
    }

    /// Parses a name produced by [`Layer::name`]. Inverts `name` by
    /// construction: it searches [`Layer::ALL`] instead of repeating the
    /// string table.
    pub(crate) fn from_str_opt(s: &str) -> Option<Layer> {
        Layer::ALL.into_iter().find(|l| l.name() == s)
    }

    /// All layers, in snapshot order.
    pub const ALL: [Layer; 7] = [
        Layer::Hw,
        Layer::Monitor,
        Layer::Vm,
        Layer::Procs,
        Layer::Fs,
        Layer::Io,
        Layer::Kernel,
    ];
}

impl std::fmt::Display for Layer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What kind of thing a trace record describes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EventKind {
    /// A ring crossing through a gate (hardware CALL or monitor entry).
    GateTransfer,
    /// The hardware raised a fault.
    FaultDispatch,
    /// Page control serviced a fault.
    FaultService,
    /// A reference-monitor decision (grant or deny).
    Verdict,
    /// An interprocess-communication send (wakeup posted).
    IpcSend,
    /// An interprocess-communication receive (wakeup consumed).
    IpcReceive,
    /// The traffic controller dispatched a virtual processor.
    Dispatch,
    /// A known-segment-table lookup or binding.
    KstLookup,
    /// An access-control-list evaluation.
    AclCheck,
    /// An interrupt was delivered.
    Interrupt,
    /// A buffer operation (store, overwrite, consume).
    BufferOp,
    /// A page moved between storage levels.
    PageOp,
    /// A span opened (bookkeeping record).
    SpanBegin,
    /// A span closed (bookkeeping record).
    SpanEnd,
    /// A mandatory label moved upward (salvager restrictive repair) —
    /// always anomalous in a healthy hierarchy, so the observatory's
    /// surveillance treats every one as alert-worthy.
    LabelRaise,
}

impl EventKind {
    /// Stable snake-case name, used in JSON snapshots.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::GateTransfer => "gate_transfer",
            EventKind::FaultDispatch => "fault_dispatch",
            EventKind::FaultService => "fault_service",
            EventKind::Verdict => "verdict",
            EventKind::IpcSend => "ipc_send",
            EventKind::IpcReceive => "ipc_receive",
            EventKind::Dispatch => "dispatch",
            EventKind::KstLookup => "kst_lookup",
            EventKind::AclCheck => "acl_check",
            EventKind::Interrupt => "interrupt",
            EventKind::BufferOp => "buffer_op",
            EventKind::PageOp => "page_op",
            EventKind::SpanBegin => "span_begin",
            EventKind::SpanEnd => "span_end",
            EventKind::LabelRaise => "label_raise",
        }
    }
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured flight-recorder entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceRecord {
    /// Monotone sequence number, assigned at append and never reused —
    /// it keeps counting even after the ring has wrapped.
    pub seq: u64,
    /// Simulated time of the event.
    pub at: Cycles,
    /// Emitting layer.
    pub layer: Layer,
    /// Event kind.
    pub kind: EventKind,
    /// Acting principal, when one is known (`Person.Project.tag`). Shared:
    /// the monitor passes the process's once-rendered copy, so recording
    /// a verdict copies no string.
    pub principal: Option<Rc<str>>,
    /// The innermost open span at emit time, if any.
    pub span: Option<SpanId>,
    /// Free-form detail (segment names, fault kinds, verdict text).
    /// Static text — span labels, fixed event names — is borrowed, so
    /// recording it copies nothing.
    pub detail: Cow<'static, str>,
}
