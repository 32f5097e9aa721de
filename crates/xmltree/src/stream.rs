//! SAX-style event streaming of Σ-trees.
//!
//! The tree transducer literature (Streaming Tree Transducers, Alur &
//! D'Antoni) views a tree transformation as a stream of open/text/close
//! events rather than a materialized tree. This module is the event side of
//! that view: [`XmlEvent`] is one event, [`XmlEventSink`] consumes a stream
//! of them, and the provided sinks rebuild trees ([`TreeBuilder`]), write
//! XML text ([`XmlWriter`]), count without storing ([`CountingSink`]), or
//! guard another sink with depth/size limits ([`Guarded`]).
//!
//! A sink returns `false` from [`XmlEventSink::event`] to *truncate* the
//! stream: the producer stops walking immediately and reports the
//! truncation. This is how consumers bound the (possibly exponential)
//! unfolding of a shared result DAG — see
//! `pt_core::RunResult::stream_output`.
//!
//! [`Tree::stream_to`] emits the event stream of an existing tree;
//! `TreeBuilder` is its inverse, which makes the pair a round-trip oracle
//! for any event producer that claims to stream a given tree.

use std::fmt;

use crate::dtd::{ContentModel, Dtd};
use crate::tree::{push_close, push_escaped, push_pad};
use crate::xdtd::ExtendedDtd;
use crate::Tree;

/// One SAX-style event of a Σ-tree stream.
///
/// A `text` leaf is a single [`XmlEvent::Text`] event (never an
/// open/close pair), matching the paper's convention that only
/// `text`-labeled leaves carry pcdata.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum XmlEvent<'a> {
    /// An element opens.
    Open(&'a str),
    /// A pcdata leaf.
    Text(&'a str),
    /// The matching element closes.
    Close(&'a str),
}

/// A consumer of [`XmlEvent`] streams.
pub trait XmlEventSink {
    /// Receive one event. Returning `false` truncates the stream: the
    /// producer stops walking and reports the stream as truncated.
    fn event(&mut self, ev: XmlEvent<'_>) -> bool;
}

/// A sink that rebuilds the [`Tree`] a well-formed stream describes — the
/// round-trip oracle for event producers.
#[derive(Default)]
pub struct TreeBuilder {
    /// Open elements, innermost last.
    stack: Vec<Tree>,
    /// The completed root, once the outermost element closed.
    done: Option<Tree>,
    /// Set when the stream was malformed (mismatched close, trailing
    /// events, text outside any element next to a completed root).
    malformed: bool,
}

impl TreeBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        TreeBuilder::default()
    }

    /// The rebuilt tree, if the stream was complete and well formed.
    pub fn finish(self) -> Option<Tree> {
        if self.malformed || !self.stack.is_empty() {
            return None;
        }
        self.done
    }

    fn attach(&mut self, t: Tree) {
        match self.stack.last_mut() {
            Some(parent) => *parent = std::mem::replace(parent, Tree::leaf("")).with_child(t),
            None if self.done.is_none() => self.done = Some(t),
            None => self.malformed = true,
        }
    }
}

impl XmlEventSink for TreeBuilder {
    fn event(&mut self, ev: XmlEvent<'_>) -> bool {
        match ev {
            XmlEvent::Open(tag) => {
                if self.stack.is_empty() && self.done.is_some() {
                    self.malformed = true;
                } else {
                    self.stack.push(Tree::leaf(tag));
                }
            }
            XmlEvent::Text(text) => self.attach(Tree::text_node(text)),
            XmlEvent::Close(tag) => match self.stack.pop() {
                Some(node) if node.label() == tag => self.attach(node),
                _ => self.malformed = true,
            },
        }
        !self.malformed
    }
}

/// A sink that writes indented XML text as events arrive, element by
/// element, without ever holding the document.
///
/// Empty elements render self-closed (`<a/>`); a single pending open is
/// held back to decide that, everything earlier is already in the output.
/// A `Close` whose tag does not match the innermost open element marks
/// the writer malformed and truncates the stream (like [`TreeBuilder`])
/// instead of writing a wrong tag.
///
/// Rendering allocates nothing per event: padding, tags and text go
/// straight into the output buffer, and pcdata is escaped with a scan
/// that copies text free of `&`, `<` and `>` in one piece. The open tags
/// (and the pending one) live in one string arena with a stack of start
/// offsets, so a close is a truncation. Once the buffer and the arena have
/// grown to the document's widest chunk and deepest path, a stream costs
/// no allocation at all.
#[derive(Default)]
pub struct XmlWriter {
    out: String,
    /// The open tags back to back, outermost first; the last one is the
    /// pending open when `pending` is set.
    tags: String,
    /// Where each tag in `tags` starts.
    starts: Vec<usize>,
    /// The last tag is an `Open` whose first child has not arrived yet.
    pending: bool,
    malformed: bool,
}

impl XmlWriter {
    /// An empty writer.
    pub fn new() -> Self {
        XmlWriter::default()
    }

    /// The XML text written so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// Whether a mismatched close event poisoned the stream.
    pub fn is_malformed(&self) -> bool {
        self.malformed
    }

    /// The XML text, consuming the writer.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Drain the text written so far, leaving the writer empty but with
    /// its element stack intact — streaming continues seamlessly. This is
    /// what lets adapters forward the document incrementally (e.g. over a
    /// socket, chunk by chunk) without ever holding all of it.
    pub fn take(&mut self) -> String {
        std::mem::take(&mut self.out)
    }

    /// Discard the text written so far but keep the buffer's capacity and
    /// the element stack: the allocation-free form of [`XmlWriter::take`]
    /// for adapters that copy [`XmlWriter::as_str`] out themselves.
    pub fn clear(&mut self) {
        self.out.clear();
    }

    /// The innermost tag in the arena.
    fn top(&self) -> Option<&str> {
        self.starts.last().map(|&i| &self.tags[i..])
    }

    fn flush_pending(&mut self) {
        if std::mem::take(&mut self.pending) {
            let depth = self.starts.len() - 1;
            push_pad(&mut self.out, depth);
            self.out.push('<');
            self.out.push_str(&self.tags[self.starts[depth]..]);
            self.out.push_str(">\n");
        }
    }
}

impl XmlEventSink for XmlWriter {
    fn event(&mut self, ev: XmlEvent<'_>) -> bool {
        if self.malformed {
            return false;
        }
        match ev {
            XmlEvent::Open(tag) => {
                self.flush_pending();
                self.starts.push(self.tags.len());
                self.tags.push_str(tag);
                self.pending = true;
            }
            XmlEvent::Text(text) => {
                self.flush_pending();
                push_pad(&mut self.out, self.starts.len());
                push_escaped(&mut self.out, text);
                self.out.push('\n');
            }
            XmlEvent::Close(tag) if self.top() != Some(tag) => self.malformed = true,
            XmlEvent::Close(tag) => {
                if let Some(start) = self.starts.pop() {
                    self.tags.truncate(start);
                }
                push_pad(&mut self.out, self.starts.len());
                if std::mem::take(&mut self.pending) {
                    // no child arrived: the element is empty
                    self.out.push('<');
                    self.out.push_str(tag);
                    self.out.push_str("/>\n");
                } else {
                    push_close(&mut self.out, tag);
                }
            }
        }
        !self.malformed
    }
}

/// A sink that counts events and tracks depth without storing anything —
/// for measuring a stream (the streaming-vs-materialize benchmarks).
#[derive(Default, Clone, Copy, Debug)]
pub struct CountingSink {
    events: usize,
    depth: usize,
    max_depth: usize,
}

impl CountingSink {
    /// A zeroed counter.
    pub fn new() -> Self {
        CountingSink::default()
    }

    /// Events received so far.
    pub fn events(&self) -> usize {
        self.events
    }

    /// The deepest open-element nesting seen.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }
}

impl XmlEventSink for CountingSink {
    fn event(&mut self, ev: XmlEvent<'_>) -> bool {
        self.events += 1;
        match ev {
            XmlEvent::Open(_) => {
                self.depth += 1;
                self.max_depth = self.max_depth.max(self.depth);
            }
            XmlEvent::Close(_) => self.depth = self.depth.saturating_sub(1),
            XmlEvent::Text(_) => {}
        }
        true
    }
}

/// Why a guarded stream stopped early — consumers log *which* budget
/// tripped instead of a bare boolean.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TruncationReason {
    /// The event-count budget was exhausted.
    Events,
    /// The depth budget was exhausted.
    Depth,
    /// The wrapped sink itself refused an event (e.g. a downstream writer
    /// lost its client mid-stream).
    Inner,
}

impl fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TruncationReason::Events => write!(f, "event limit"),
            TruncationReason::Depth => write!(f, "depth limit"),
            TruncationReason::Inner => write!(f, "inner sink refused"),
        }
    }
}

/// Wraps another sink with event-count and depth guards: once either limit
/// is exceeded the stream is truncated (the inner sink never sees the
/// offending event) and [`Guarded::truncated`] reports it, with
/// [`Guarded::truncation_reason`] distinguishing which budget tripped (or
/// whether the inner sink refused an event on its own).
///
/// This is the consumer-side budget for unfoldings that are exponential in
/// the database (Proposition 1(3,4)): the producer shares subtrees, but the
/// event stream replays every occurrence.
pub struct Guarded<S> {
    inner: S,
    max_events: usize,
    max_depth: usize,
    events: usize,
    depth: usize,
    truncated: Option<TruncationReason>,
}

impl<S: XmlEventSink> Guarded<S> {
    /// Guard `inner` with the given limits.
    pub fn new(inner: S, max_events: usize, max_depth: usize) -> Self {
        Guarded {
            inner,
            max_events,
            max_depth,
            events: 0,
            depth: 0,
            truncated: None,
        }
    }

    /// Events passed through so far.
    pub fn events(&self) -> usize {
        self.events
    }

    /// Whether a limit tripped (or the inner sink refused an event).
    pub fn truncated(&self) -> bool {
        self.truncated.is_some()
    }

    /// Why the stream stopped, if it did.
    pub fn truncation_reason(&self) -> Option<TruncationReason> {
        self.truncated
    }

    /// The wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: XmlEventSink> XmlEventSink for Guarded<S> {
    fn event(&mut self, ev: XmlEvent<'_>) -> bool {
        if self.truncated.is_some() {
            return false;
        }
        if self.events + 1 > self.max_events {
            self.truncated = Some(TruncationReason::Events);
            return false;
        }
        let depth = match ev {
            XmlEvent::Open(_) => self.depth + 1,
            _ => self.depth,
        };
        if depth > self.max_depth {
            self.truncated = Some(TruncationReason::Depth);
            return false;
        }
        self.events += 1;
        self.depth = depth;
        if let XmlEvent::Close(_) = ev {
            self.depth = self.depth.saturating_sub(1);
        }
        if !self.inner.event(ev) {
            self.truncated = Some(TruncationReason::Inner);
            return false;
        }
        true
    }
}

/// Why a [`DtdSink`] rejected a stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DtdViolation {
    /// The first `Open` (or a root `Text`) did not carry the DTD's root tag.
    RootMismatch {
        /// The DTD's root tag.
        expected: String,
        /// The label actually seen.
        found: String,
    },
    /// A child arrived that no continuation of the parent's content model
    /// accepts at this position.
    BadChild {
        /// The open element whose content model rejected the child.
        parent: String,
        /// The offending child label (`text` for a pcdata leaf).
        child: String,
    },
    /// An element closed before its content model was satisfied (more
    /// children were required).
    PrematureClose {
        /// The element that closed too early.
        tag: String,
    },
    /// The stream itself was ill formed: a mismatched close, events after
    /// the root closed, or a close with nothing open.
    Malformed,
}

impl fmt::Display for DtdViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DtdViolation::RootMismatch { expected, found } => {
                write!(f, "root mismatch: expected <{expected}>, found <{found}>")
            }
            DtdViolation::BadChild { parent, child } => {
                write!(f, "content model of <{parent}> rejects child <{child}>")
            }
            DtdViolation::PrematureClose { tag } => {
                write!(f, "<{tag}> closed before its content model was satisfied")
            }
            DtdViolation::Malformed => write!(f, "malformed event stream"),
        }
    }
}

/// A sink that validates the stream against a [`Dtd`] incrementally, by
/// running the Brzozowski derivative of each open element's content model
/// as children arrive — the streaming counterpart of [`Dtd::conforms`],
/// and the runtime oracle for the static typechecker
/// (`pt_analysis::typecheck`).
///
/// The sink truncates the stream (returns `false`) at the **first**
/// violating event, so producers stop work the moment the output is known
/// bad; [`DtdSink::violation`] then reports why. On a complete well-formed
/// stream, [`DtdSink::conforms`] agrees exactly with [`Dtd::conforms`] on
/// the streamed tree. Composable with [`Guarded`] like any other sink.
pub struct DtdSink {
    dtd: Dtd,
    /// Open elements with the derivative of their content model so far.
    stack: Vec<(String, ContentModel)>,
    violation: Option<DtdViolation>,
    root_done: bool,
}

impl DtdSink {
    /// A sink validating against `dtd`.
    pub fn new(dtd: &Dtd) -> DtdSink {
        DtdSink {
            dtd: dtd.clone(),
            stack: Vec::new(),
            violation: None,
            root_done: false,
        }
    }

    /// The first violation, if any.
    pub fn violation(&self) -> Option<&DtdViolation> {
        self.violation.as_ref()
    }

    /// No violation so far (the stream may still be incomplete).
    pub fn ok(&self) -> bool {
        self.violation.is_none()
    }

    /// Whether a complete, conforming document was streamed: the root
    /// element opened and closed with every content model satisfied.
    pub fn conforms(&self) -> bool {
        self.violation.is_none() && self.root_done && self.stack.is_empty()
    }

    fn fail(&mut self, v: DtdViolation) -> bool {
        self.violation = Some(v);
        false
    }

    /// Consume one child label (a tag or `text`) in the innermost open
    /// element's content model.
    fn consume_child(&mut self, child: &str) -> bool {
        let (parent, cm) = self.stack.last_mut().expect("an open element");
        let next = cm.derive(child);
        if next.is_void() {
            let parent = parent.clone();
            return self.fail(DtdViolation::BadChild {
                parent,
                child: child.to_string(),
            });
        }
        *cm = next;
        true
    }
}

impl XmlEventSink for DtdSink {
    fn event(&mut self, ev: XmlEvent<'_>) -> bool {
        if self.violation.is_some() {
            return false;
        }
        match ev {
            XmlEvent::Open(tag) => {
                if self.stack.is_empty() {
                    if self.root_done {
                        return self.fail(DtdViolation::Malformed);
                    }
                    if tag != self.dtd.root() {
                        return self.fail(DtdViolation::RootMismatch {
                            expected: self.dtd.root().to_string(),
                            found: tag.to_string(),
                        });
                    }
                } else if !self.consume_child(tag) {
                    return false;
                }
                self.stack
                    .push((tag.to_string(), self.dtd.content_model(tag)));
                true
            }
            XmlEvent::Text(_) => {
                if self.stack.is_empty() {
                    // a bare pcdata root: the document is the `text` leaf
                    if self.root_done {
                        return self.fail(DtdViolation::Malformed);
                    }
                    if self.dtd.root() != "text" {
                        return self.fail(DtdViolation::RootMismatch {
                            expected: self.dtd.root().to_string(),
                            found: "text".to_string(),
                        });
                    }
                    if !self.dtd.content_model("text").nullable() {
                        return self.fail(DtdViolation::PrematureClose {
                            tag: "text".to_string(),
                        });
                    }
                    self.root_done = true;
                    return true;
                }
                self.consume_child("text")
            }
            XmlEvent::Close(tag) => {
                let Some((open, cm)) = self.stack.pop() else {
                    return self.fail(DtdViolation::Malformed);
                };
                if open != tag {
                    return self.fail(DtdViolation::Malformed);
                }
                if !cm.nullable() {
                    return self.fail(DtdViolation::PrematureClose {
                        tag: tag.to_string(),
                    });
                }
                if self.stack.is_empty() {
                    self.root_done = true;
                }
                true
            }
        }
    }
}

/// A sink that validates the stream against an [`ExtendedDtd`] — the
/// streaming counterpart of [`ExtendedDtd::conforms`].
///
/// Each open element tracks its surviving Σ'-specializations paired with
/// the set of derivative states its content model can be in, given any
/// consistent specialization of the children seen so far (the same subset
/// simulation the batch checker runs bottom-up, run left to right). When a
/// child completes, its possible-label set is folded into the parent's
/// candidates; the stream is truncated as soon as no candidate survives,
/// since no Σ'-relabeling of any completion can then conform.
pub struct XdtdSink {
    xdtd: ExtendedDtd,
    /// One frame per open element: its Σ-tag and the surviving
    /// `(σ', derivative states)` candidates.
    stack: Vec<XdtdFrame>,
    /// Guaranteed nonconforming (dead candidates or ill-formed stream).
    dead: bool,
    /// Set once the root completed: did some root specialization survive?
    result: Option<bool>,
}

struct XdtdFrame {
    tag: String,
    candidates: Vec<(String, Vec<ContentModel>)>,
}

impl XdtdSink {
    /// A sink validating against `xdtd`.
    pub fn new(xdtd: &ExtendedDtd) -> XdtdSink {
        XdtdSink {
            xdtd: xdtd.clone(),
            stack: Vec::new(),
            dead: false,
            result: None,
        }
    }

    /// Whether a complete document was streamed and some Σ'-relabeling of
    /// it satisfies the underlying DTD.
    pub fn conforms(&self) -> bool {
        !self.dead && self.result == Some(true)
    }

    /// The possible Σ'-labels of a completed pcdata leaf.
    fn text_labels(&self) -> Vec<String> {
        self.xdtd
            .preimage("text")
            .into_iter()
            .filter(|s| self.xdtd.dtd().content_model(s).nullable())
            .collect()
    }

    /// Fold a completed child's possible-label set into the innermost open
    /// frame; returns `false` when no candidate survives anywhere above.
    fn feed(&mut self, labels: &[String]) -> bool {
        let frame = self.stack.last_mut().expect("an open element");
        for (_, states) in frame.candidates.iter_mut() {
            let mut next: Vec<ContentModel> = Vec::new();
            for st in states.iter() {
                for letter in labels {
                    let d = st.derive(letter);
                    if !d.is_void() && !next.contains(&d) {
                        next.push(d);
                    }
                }
            }
            *states = next;
        }
        frame.candidates.retain(|(_, states)| !states.is_empty());
        if frame.candidates.is_empty() {
            self.dead = true;
            return false;
        }
        true
    }

    /// Complete the document with the given possible-label set for the
    /// root node.
    fn finish_root(&mut self, labels: &[String]) -> bool {
        let conform = labels.iter().any(|s| s == self.xdtd.dtd().root());
        self.result = Some(conform);
        if !conform {
            self.dead = true;
        }
        conform
    }
}

impl XmlEventSink for XdtdSink {
    fn event(&mut self, ev: XmlEvent<'_>) -> bool {
        if self.dead {
            return false;
        }
        match ev {
            XmlEvent::Open(tag) => {
                if self.stack.is_empty() && self.result.is_some() {
                    self.dead = true;
                    return false;
                }
                let candidates: Vec<(String, Vec<ContentModel>)> = self
                    .xdtd
                    .preimage(tag)
                    .into_iter()
                    .map(|s| {
                        let cm = self.xdtd.dtd().content_model(&s);
                        (s, vec![cm])
                    })
                    .collect();
                if candidates.is_empty() {
                    // tag outside Σ': no relabeling exists
                    self.dead = true;
                    return false;
                }
                self.stack.push(XdtdFrame {
                    tag: tag.to_string(),
                    candidates,
                });
                true
            }
            XmlEvent::Text(_) => {
                let labels = self.text_labels();
                if self.stack.is_empty() {
                    if self.result.is_some() {
                        self.dead = true;
                        return false;
                    }
                    return self.finish_root(&labels);
                }
                self.feed(&labels)
            }
            XmlEvent::Close(tag) => {
                let Some(frame) = self.stack.pop() else {
                    self.dead = true;
                    return false;
                };
                if frame.tag != tag {
                    self.dead = true;
                    return false;
                }
                // the labels this completed element can take: candidates
                // whose derivative set accepts the children consumed
                let labels: Vec<String> = frame
                    .candidates
                    .into_iter()
                    .filter(|(_, states)| states.iter().any(ContentModel::nullable))
                    .map(|(s, _)| s)
                    .collect();
                if self.stack.is_empty() {
                    return self.finish_root(&labels);
                }
                if labels.is_empty() {
                    self.dead = true;
                    return false;
                }
                self.feed(&labels)
            }
        }
    }
}

impl Tree {
    /// Emit this tree as an event stream, preorder: `Open`, the children's
    /// streams, `Close` (a `text` leaf is a single `Text` event). Returns
    /// `false` if the sink truncated the stream.
    pub fn stream_to(&self, sink: &mut impl XmlEventSink) -> bool {
        enum Frame<'a> {
            Visit(&'a Tree),
            Close(&'a str),
        }
        let mut stack = vec![Frame::Visit(self)];
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Visit(node) => {
                    if let Some(text) = node.pcdata() {
                        if !sink.event(XmlEvent::Text(text)) {
                            return false;
                        }
                    } else {
                        if !sink.event(XmlEvent::Open(node.label())) {
                            return false;
                        }
                        stack.push(Frame::Close(node.label()));
                        for c in node.children().iter().rev() {
                            stack.push(Frame::Visit(c));
                        }
                    }
                }
                Frame::Close(tag) => {
                    if !sink.event(XmlEvent::Close(tag)) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tree {
        Tree::node(
            "db",
            vec![
                Tree::node(
                    "course",
                    vec![
                        Tree::node("cno", vec![Tree::text_node("c1")]),
                        Tree::leaf("prereq"),
                    ],
                ),
                Tree::leaf("course"),
            ],
        )
    }

    #[test]
    fn stream_round_trips_through_tree_builder() {
        let t = sample();
        let mut builder = TreeBuilder::new();
        assert!(t.stream_to(&mut builder));
        assert_eq!(builder.finish().unwrap(), t);
    }

    #[test]
    fn single_text_root_round_trips() {
        let t = Tree::text_node("hello");
        let mut builder = TreeBuilder::new();
        assert!(t.stream_to(&mut builder));
        assert_eq!(builder.finish().unwrap(), t);
    }

    #[test]
    fn malformed_streams_rejected() {
        // mismatched close
        let mut b = TreeBuilder::new();
        assert!(b.event(XmlEvent::Open("a")));
        assert!(!b.event(XmlEvent::Close("b")));
        assert!(b.finish().is_none());
        // trailing second root
        let mut b = TreeBuilder::new();
        assert!(b.event(XmlEvent::Open("a")));
        assert!(b.event(XmlEvent::Close("a")));
        assert!(!b.event(XmlEvent::Open("b")));
        assert!(b.finish().is_none());
        // unclosed element
        let mut b = TreeBuilder::new();
        assert!(b.event(XmlEvent::Open("a")));
        assert!(b.finish().is_none());
    }

    #[test]
    fn xml_writer_streams_text() {
        let mut w = XmlWriter::new();
        assert!(sample().stream_to(&mut w));
        let xml = w.into_string();
        assert!(xml.contains("<db>"), "got: {xml}");
        assert!(xml.contains("c1"));
        // empty elements self-close
        assert!(xml.contains("<prereq/>"), "got: {xml}");
        assert!(xml.contains("</db>"));
    }

    #[test]
    fn xml_writer_escapes_pcdata() {
        let mut w = XmlWriter::new();
        Tree::node("a", vec![Tree::text_node("x < y & z")]).stream_to(&mut w);
        assert!(w.as_str().contains("x &lt; y &amp; z"));
    }

    #[test]
    fn xml_writer_rejects_mismatched_closes() {
        // pending open, wrong close: nothing wrong is written
        let mut w = XmlWriter::new();
        assert!(w.event(XmlEvent::Open("a")));
        assert!(!w.event(XmlEvent::Close("b")));
        assert!(w.is_malformed());
        assert!(!w.as_str().contains("<b/>"));
        // flushed open, wrong close
        let mut w = XmlWriter::new();
        assert!(w.event(XmlEvent::Open("a")));
        assert!(w.event(XmlEvent::Text("t")));
        assert!(!w.event(XmlEvent::Close("b")));
        assert!(w.is_malformed());
        // once poisoned, every later event is refused
        assert!(!w.event(XmlEvent::Open("c")));
    }

    #[test]
    fn counting_sink_measures_the_stream() {
        let mut c = CountingSink::new();
        assert!(sample().stream_to(&mut c));
        // db, course, cno, "c1", /cno, prereq, /prereq, /course, course,
        // /course, /db
        assert_eq!(c.events(), 11);
        assert_eq!(c.max_depth(), 3);
    }

    fn registrar_dtd() -> Dtd {
        Dtd::new("db")
            .rule("db", "course*")
            .rule("course", "cno, title, prereq")
            .rule("prereq", "course*")
            .rule("cno", "text")
            .rule("title", "text")
    }

    fn course(cno: &str, prereqs: Vec<Tree>) -> Tree {
        Tree::node(
            "course",
            vec![
                Tree::node("cno", vec![Tree::text_node(cno)]),
                Tree::node("title", vec![Tree::text_node("t")]),
                Tree::node("prereq", prereqs),
            ],
        )
    }

    #[test]
    fn dtd_sink_accepts_conforming_streams() {
        let d = registrar_dtd();
        let t = Tree::node("db", vec![course("c1", vec![course("c2", vec![])])]);
        let mut sink = DtdSink::new(&d);
        assert!(t.stream_to(&mut sink));
        assert!(sink.conforms());
        assert!(sink.violation().is_none());
    }

    #[test]
    fn dtd_sink_rejects_at_first_bad_event() {
        let d = registrar_dtd();
        // root mismatch
        let mut sink = DtdSink::new(&d);
        assert!(!sink.event(XmlEvent::Open("catalog")));
        assert_eq!(
            sink.violation(),
            Some(&DtdViolation::RootMismatch {
                expected: "db".to_string(),
                found: "catalog".to_string(),
            })
        );
        // wrong child order: title before cno
        let mut sink = DtdSink::new(&d);
        assert!(sink.event(XmlEvent::Open("db")));
        assert!(sink.event(XmlEvent::Open("course")));
        assert!(!sink.event(XmlEvent::Open("title")));
        assert_eq!(
            sink.violation(),
            Some(&DtdViolation::BadChild {
                parent: "course".to_string(),
                child: "title".to_string(),
            })
        );
        // course sealed early: cno alone does not satisfy the model
        let d2 = d.clone();
        let mut sink = DtdSink::new(&d2);
        for ev in [
            XmlEvent::Open("db"),
            XmlEvent::Open("course"),
            XmlEvent::Open("cno"),
            XmlEvent::Text("c1"),
            XmlEvent::Close("cno"),
        ] {
            assert!(sink.event(ev));
        }
        assert!(!sink.event(XmlEvent::Close("course")));
        assert_eq!(
            sink.violation(),
            Some(&DtdViolation::PrematureClose {
                tag: "course".to_string()
            })
        );
        // mismatched close is malformed, not a schema issue
        let mut sink = DtdSink::new(&d);
        assert!(sink.event(XmlEvent::Open("db")));
        assert!(!sink.event(XmlEvent::Close("course")));
        assert_eq!(sink.violation(), Some(&DtdViolation::Malformed));
    }

    #[test]
    fn dtd_sink_incomplete_stream_does_not_conform() {
        let d = registrar_dtd();
        let mut sink = DtdSink::new(&d);
        assert!(sink.event(XmlEvent::Open("db")));
        assert!(sink.ok());
        assert!(!sink.conforms());
    }

    #[test]
    fn dtd_sink_agrees_with_batch_conformance() {
        let d = registrar_dtd();
        let trees = [
            Tree::node("db", vec![]),
            Tree::node("db", vec![course("c1", vec![])]),
            Tree::node("db", vec![Tree::leaf("course")]),
            Tree::node("course", vec![]),
            Tree::node(
                "db",
                vec![Tree::node(
                    "course",
                    vec![
                        Tree::node("cno", vec![Tree::text_node("c")]),
                        Tree::node("title", vec![Tree::text_node("t")]),
                    ],
                )],
            ),
            Tree::text_node("just text"),
        ];
        for t in &trees {
            let mut sink = DtdSink::new(&d);
            t.stream_to(&mut sink);
            assert_eq!(sink.conforms(), d.conforms(t), "tree: {t:?}");
        }
    }

    #[test]
    fn dtd_sink_composes_with_guarded() {
        let d = registrar_dtd();
        let t = Tree::node("db", vec![course("c1", vec![])]);
        let mut g = Guarded::new(DtdSink::new(&d), usize::MAX, usize::MAX);
        assert!(t.stream_to(&mut g));
        assert!(!g.truncated());
        assert!(g.into_inner().conforms());
    }

    fn specialized_xdtd() -> ExtendedDtd {
        // last `a` must hold a `b`, earlier ones must be empty
        let dtd = Dtd::new("r")
            .rule("r", "a0*, a1")
            .rule("a0", "#eps")
            .rule("a1", "b");
        ExtendedDtd::new(
            dtd,
            [
                ("a0".to_string(), "a".to_string()),
                ("a1".to_string(), "a".to_string()),
            ],
        )
    }

    #[test]
    fn xdtd_sink_agrees_with_batch_conformance() {
        let x = specialized_xdtd();
        let trees = [
            Tree::node(
                "r",
                vec![
                    Tree::leaf("a"),
                    Tree::leaf("a"),
                    Tree::node("a", vec![Tree::leaf("b")]),
                ],
            ),
            Tree::node(
                "r",
                vec![Tree::node("a", vec![Tree::leaf("b")]), Tree::leaf("a")],
            ),
            Tree::node("r", vec![Tree::leaf("a")]),
            Tree::node("r", vec![Tree::node("a", vec![Tree::leaf("b")])]),
            Tree::leaf("r"),
            Tree::leaf("z"),
        ];
        for t in &trees {
            let mut sink = XdtdSink::new(&x);
            t.stream_to(&mut sink);
            assert_eq!(sink.conforms(), x.conforms(t), "tree: {t:?}");
        }
    }

    #[test]
    fn xdtd_sink_fails_early_on_dead_candidates() {
        let x = specialized_xdtd();
        let mut sink = XdtdSink::new(&x);
        assert!(sink.event(XmlEvent::Open("r")));
        // `c` has no specialization: the stream is truncated immediately
        assert!(!sink.event(XmlEvent::Open("c")));
        assert!(!sink.conforms());
    }

    #[test]
    fn guards_truncate_deep_and_long_streams() {
        let t = sample();
        // event guard
        let mut g = Guarded::new(CountingSink::new(), 3, usize::MAX);
        assert!(!t.stream_to(&mut g));
        assert!(g.truncated());
        assert_eq!(g.truncation_reason(), Some(TruncationReason::Events));
        assert_eq!(g.events(), 3);
        // depth guard: the inner sink keeps only events above the cut
        let mut g = Guarded::new(TreeBuilder::new(), usize::MAX, 2);
        assert!(!t.stream_to(&mut g));
        assert!(g.truncated());
        assert_eq!(g.truncation_reason(), Some(TruncationReason::Depth));
        // no guard tripped: passes through untouched
        let mut g = Guarded::new(TreeBuilder::new(), usize::MAX, usize::MAX);
        assert!(t.stream_to(&mut g));
        assert!(!g.truncated());
        assert_eq!(g.truncation_reason(), None);
        assert_eq!(g.into_inner().finish().unwrap(), t);
    }

    #[test]
    fn guard_reports_inner_refusal_and_latches() {
        // the inner sink (a DTD validator) refuses the bad root itself:
        // the guard distinguishes that from its own budgets
        let d = registrar_dtd();
        let mut g = Guarded::new(DtdSink::new(&d), usize::MAX, usize::MAX);
        assert!(!g.event(XmlEvent::Open("catalog")));
        assert!(g.truncated());
        assert_eq!(g.truncation_reason(), Some(TruncationReason::Inner));
        // latched: later events are refused without reaching the inner sink
        assert!(!g.event(XmlEvent::Open("db")));
        assert_eq!(g.truncation_reason(), Some(TruncationReason::Inner));
    }
}
