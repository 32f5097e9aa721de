//! Byte-level oracles for the two XML renderers.
//!
//! [`RefWriter`] and [`ref_to_xml`] are straightforward `format!`-based
//! renderings of the same output format, kept here as independent
//! references: `XmlWriter` and `Tree::to_xml` write into one buffer with no
//! per-event allocation, and a seeded differential pins them byte for
//! byte to these references over random event streams and random trees.

use pt_xmltree::{Tree, XmlEvent, XmlEventSink, XmlWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reference streaming writer: one `String` per open tag, `format!` per
/// event, `str::replace` escaping.
#[derive(Default)]
struct RefWriter {
    out: String,
    open: Vec<String>,
    pending: Option<String>,
    malformed: bool,
}

fn ref_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

impl RefWriter {
    fn take(&mut self) -> String {
        std::mem::take(&mut self.out)
    }

    fn flush_pending(&mut self) {
        if let Some(tag) = self.pending.take() {
            let pad = "  ".repeat(self.open.len());
            self.out.push_str(&format!("{pad}<{tag}>\n"));
            self.open.push(tag);
        }
    }

    fn event(&mut self, ev: XmlEvent<'_>) -> bool {
        if self.malformed {
            return false;
        }
        match ev {
            XmlEvent::Open(tag) => {
                self.flush_pending();
                self.pending = Some(tag.to_string());
            }
            XmlEvent::Text(text) => {
                self.flush_pending();
                let pad = "  ".repeat(self.open.len());
                self.out.push_str(&format!("{pad}{}\n", ref_escape(text)));
            }
            XmlEvent::Close(tag) => match self.pending.take() {
                Some(open) if open == tag => {
                    let pad = "  ".repeat(self.open.len());
                    self.out.push_str(&format!("{pad}<{tag}/>\n"));
                }
                Some(_) => self.malformed = true,
                None => match self.open.pop() {
                    Some(open) if open == tag => {
                        let pad = "  ".repeat(self.open.len());
                        self.out.push_str(&format!("{pad}</{tag}>\n"));
                    }
                    _ => self.malformed = true,
                },
            },
        }
        !self.malformed
    }
}

/// Reference `Tree::to_xml`.
fn ref_to_xml(t: &Tree) -> String {
    fn go(t: &Tree, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        if let Some(text) = t.pcdata() {
            out.push_str(&format!("{pad}{}\n", ref_escape(text)));
            return;
        }
        let label = t.label();
        if t.children().is_empty() {
            out.push_str(&format!("{pad}<{label}/>\n"));
            return;
        }
        if t.children().len() == 1 {
            if let Some(text) = t.children()[0].pcdata() {
                out.push_str(&format!("{pad}<{label}>{}</{label}>\n", ref_escape(text)));
                return;
            }
        }
        out.push_str(&format!("{pad}<{label}>\n"));
        for c in t.children() {
            go(c, out, indent + 1);
        }
        out.push_str(&format!("{pad}</{label}>\n"));
    }
    let mut out = String::new();
    go(t, &mut out, 0);
    out
}

/// Tags: ASCII, multi-byte UTF-8, and prefixes of one another (so a close
/// of `course` against an open `c` must not match).
const TAGS: &[&str] = &[
    "c", "course", "cno", "é", "日本", "ß×ß", "a-b.c", "c\u{301}",
];

/// Text pieces: markup characters alone and inside runs, multi-byte
/// UTF-8, an already-escaped entity, and the empty string.
const TEXTS: &[&str] = &[
    "",
    "c1",
    "&",
    "<",
    ">",
    "x < y & z",
    "a>b<c",
    "&amp;",
    "héllo wörld",
    "日本語のテキスト",
    "<<>>&&",
    "  spaced  ",
    "🦀 & 🦀",
];

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

/// A random event stream. Mostly well formed (closes match the stack),
/// with deep runs of opens, empty elements, text at any depth, and —
/// when `corrupt` — one close of a wrong tag or with nothing open.
fn random_stream(rng: &mut StdRng, corrupt: bool) -> Vec<XmlEvent<'static>> {
    let len = rng.gen_range(1..120);
    let bad_at = if corrupt {
        rng.gen_range(0..len)
    } else {
        usize::MAX
    };
    let deep = rng.gen_bool(0.2);
    let mut stack: Vec<&'static str> = Vec::new();
    let mut evs = Vec::new();
    for i in 0..len {
        if i == bad_at {
            let wrong = TAGS
                .iter()
                .copied()
                .find(|t| Some(t) != stack.last())
                .unwrap();
            evs.push(XmlEvent::Close(wrong));
            continue;
        }
        let roll = rng.gen_range(0..10);
        if (deep && roll < 7) || roll < 4 {
            let tag = pick(rng, TAGS);
            stack.push(tag);
            evs.push(XmlEvent::Open(tag));
        } else if roll < 6 || stack.is_empty() {
            evs.push(XmlEvent::Text(pick(rng, TEXTS)));
        } else {
            evs.push(XmlEvent::Close(stack.pop().unwrap()));
        }
    }
    while let Some(tag) = stack.pop() {
        evs.push(XmlEvent::Close(tag));
    }
    evs
}

#[test]
fn xml_writer_matches_the_reference_on_random_streams() {
    let cases: u64 = 1000;
    let mut malformed_cases = 0;
    for seed in 0..cases {
        let mut rng = StdRng::seed_from_u64(seed);
        let evs = random_stream(&mut rng, seed % 4 == 3);
        let mut w = XmlWriter::new();
        let mut r = RefWriter::default();
        let (mut got, mut want) = (String::new(), String::new());
        for (i, ev) in evs.iter().enumerate() {
            let ok = w.event(*ev);
            assert_eq!(ok, r.event(*ev), "seed {seed}: verdict at event {i} {ev:?}");
            assert_eq!(w.is_malformed(), r.malformed, "seed {seed}: event {i}");
            // drain mid-stream now and then; the stack must survive it
            if rng.gen_bool(0.1) {
                let (a, b) = (w.take(), r.take());
                assert_eq!(a, b, "seed {seed}: take() after event {i}");
                got.push_str(&a);
                want.push_str(&b);
            }
        }
        malformed_cases += usize::from(w.is_malformed());
        assert_eq!(w.as_str(), r.out, "seed {seed}: tail");
        got.push_str(&w.into_string());
        want.push_str(&r.out);
        assert_eq!(got, want, "seed {seed}: whole document");
    }
    // the corrupted quarter really exercised the malformed latch
    assert!(malformed_cases >= (cases / 4) as usize, "{malformed_cases}");
}

#[test]
fn xml_writer_latches_malformed_at_the_same_event() {
    // a close against a pending open of a prefix tag, against a written
    // open, and with nothing open at all
    let streams: [&[XmlEvent]; 3] = [
        &[XmlEvent::Open("c"), XmlEvent::Close("course")],
        &[
            XmlEvent::Open("日本"),
            XmlEvent::Text("t"),
            XmlEvent::Close("日"),
            XmlEvent::Open("x"),
        ],
        &[
            XmlEvent::Text("&"),
            XmlEvent::Close("a"),
            XmlEvent::Text("b"),
        ],
    ];
    for evs in streams {
        let mut w = XmlWriter::new();
        let mut r = RefWriter::default();
        for ev in evs {
            assert_eq!(w.event(*ev), r.event(*ev), "{evs:?} at {ev:?}");
            assert_eq!(w.is_malformed(), r.malformed);
        }
        assert!(w.is_malformed());
        assert_eq!(w.as_str(), r.out);
    }
}

fn random_tree(rng: &mut StdRng, depth: usize) -> Tree {
    if depth > 0 && rng.gen_bool(0.3) {
        return Tree::text_node(pick(rng, TEXTS));
    }
    let kids = if depth >= 7 { 0 } else { rng.gen_range(0..4) };
    let children = (0..kids).map(|_| random_tree(rng, depth + 1)).collect();
    Tree::node(pick(rng, TAGS), children)
}

#[test]
fn tree_to_xml_matches_the_reference_on_random_trees() {
    for seed in 0..500 {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = random_tree(&mut rng, 0);
        assert_eq!(t.to_xml(), ref_to_xml(&t), "seed {seed}: {t:?}");
    }
}
