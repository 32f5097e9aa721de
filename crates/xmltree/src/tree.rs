use std::fmt;

/// An ordered, unranked, node-labeled tree (a Σ-tree of Section 2).
///
/// Only `text`-labeled leaves may carry pcdata; [`Tree::text_node`] enforces
/// this by construction. Structural equality is label- and order-sensitive,
/// exactly the tree equality the paper's membership and equivalence problems
/// quantify over.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tree {
    label: String,
    pcdata: Option<String>,
    children: Vec<Tree>,
}

impl Tree {
    /// A leaf with the given tag.
    pub fn leaf(label: impl AsRef<str>) -> Tree {
        Tree {
            label: label.as_ref().to_string(),
            pcdata: None,
            children: Vec::new(),
        }
    }

    /// An interior node with the given tag and children.
    pub fn node(label: impl AsRef<str>, children: Vec<Tree>) -> Tree {
        Tree {
            label: label.as_ref().to_string(),
            pcdata: None,
            children,
        }
    }

    /// A `text` leaf carrying pcdata (Section 2: only `text`-labeled leaves
    /// carry strings).
    pub fn text_node(content: impl AsRef<str>) -> Tree {
        Tree {
            label: "text".to_string(),
            pcdata: Some(content.as_ref().to_string()),
            children: Vec::new(),
        }
    }

    /// The node's tag.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The pcdata, for text nodes.
    pub fn pcdata(&self) -> Option<&str> {
        self.pcdata.as_deref()
    }

    /// The ordered children.
    pub fn children(&self) -> &[Tree] {
        &self.children
    }

    /// Append a child (builder style).
    pub fn with_child(mut self, child: Tree) -> Tree {
        self.children.push(child);
        self
    }

    /// Number of nodes (the paper's size measure for trees).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(Tree::size).sum::<usize>()
    }

    /// Depth: a single node has depth 1.
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(Tree::depth).max().unwrap_or(0)
    }

    /// Whether this is the trivial single-node tree (the `r`-only output the
    /// emptiness problem asks about).
    pub fn is_trivial(&self) -> bool {
        self.children.is_empty()
    }

    /// Iterate over all nodes, preorder.
    pub fn preorder(&self) -> Vec<&Tree> {
        let mut out = vec![self];
        for c in &self.children {
            out.extend(c.preorder());
        }
        out
    }

    /// Relabel every node through `f` (the canonical extension of a label
    /// mapping µ from tags to trees, used by extended DTDs).
    pub fn map_labels(&self, f: &impl Fn(&str) -> String) -> Tree {
        Tree {
            label: f(&self.label),
            pcdata: self.pcdata.clone(),
            children: self.children.iter().map(|c| c.map_labels(f)).collect(),
        }
    }

    /// Serialize to indented XML text.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write_xml(&mut out, 0);
        out
    }

    fn write_xml(&self, out: &mut String, indent: usize) {
        push_pad(out, indent);
        if let Some(text) = &self.pcdata {
            push_escaped(out, text);
            out.push('\n');
            return;
        }
        out.push('<');
        out.push_str(&self.label);
        if self.children.is_empty() {
            out.push_str("/>\n");
            return;
        }
        // single text child renders inline: <cno>c1</cno>
        if let [only] = self.children.as_slice() {
            if let Some(text) = only.pcdata() {
                out.push('>');
                push_escaped(out, text);
                push_close(out, &self.label);
                return;
            }
        }
        out.push_str(">\n");
        for c in &self.children {
            c.write_xml(out, indent + 1);
        }
        push_pad(out, indent);
        push_close(out, &self.label);
    }
}

/// Append `depth` levels of two-space indentation.
pub(crate) fn push_pad(out: &mut String, depth: usize) {
    const SPACES: &str = "                                                                ";
    let mut n = 2 * depth;
    while n > 0 {
        let k = n.min(SPACES.len());
        out.push_str(&SPACES[..k]);
        n -= k;
    }
}

/// Append `</tag>` and a newline.
pub(crate) fn push_close(out: &mut String, tag: &str) {
    out.push_str("</");
    out.push_str(tag);
    out.push_str(">\n");
}

/// Append `s` with `&`, `<` and `>` escaped. Text with none of them (the
/// common case) is copied in one piece after a byte scan.
pub(crate) fn push_escaped(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(i) = rest.bytes().position(|b| matches!(b, b'&' | b'<' | b'>')) {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'&' => "&amp;",
            b'<' => "&lt;",
            _ => "&gt;",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

impl fmt::Debug for Tree {
    /// Compact term representation: `db(course(cno("c1"), ...))`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(text) = &self.pcdata {
            return write!(f, "{text:?}");
        }
        write!(f, "{}", self.label)?;
        if !self.children.is_empty() {
            write!(f, "(")?;
            for (i, c) in self.children.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{c:?}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Display for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml())
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
                        Tree::node("title", vec![Tree::text_node("DB")]),
                    ],
                ),
                Tree::leaf("course"),
            ],
        )
    }

    #[test]
    fn size_and_depth() {
        let t = sample();
        assert_eq!(t.size(), 7);
        assert_eq!(t.depth(), 4);
        assert!(!t.is_trivial());
        assert!(Tree::leaf("r").is_trivial());
    }

    #[test]
    fn equality_is_order_sensitive() {
        let a = Tree::node("r", vec![Tree::leaf("a"), Tree::leaf("b")]);
        let b = Tree::node("r", vec![Tree::leaf("b"), Tree::leaf("a")]);
        assert_ne!(a, b);
        assert_eq!(a, a.clone());
    }

    #[test]
    fn xml_serialization() {
        let xml = sample().to_xml();
        assert!(xml.contains("<cno>c1</cno>"));
        assert!(xml.contains("<course/>"));
        assert!(xml.starts_with("<db>\n"));
        assert!(xml.trim_end().ends_with("</db>"));
    }

    #[test]
    fn xml_escaping() {
        let t = Tree::node("a", vec![Tree::text_node("x < y & z")]);
        assert!(t.to_xml().contains("x &lt; y &amp; z"));
    }

    #[test]
    fn debug_term_form() {
        let t = Tree::node("r", vec![Tree::node("a", vec![Tree::text_node("v")])]);
        assert_eq!(format!("{t:?}"), "r(a(\"v\"))");
    }

    #[test]
    fn preorder_walk() {
        let t = sample();
        let labels: Vec<&str> = t.preorder().iter().map(|n| n.label()).collect();
        assert_eq!(
            labels,
            vec!["db", "course", "cno", "text", "title", "text", "course"]
        );
    }

    #[test]
    fn map_labels_relabels_everywhere() {
        let t = Tree::node("b1", vec![Tree::leaf("b2")]);
        let mapped = t.map_labels(&|l| l.trim_end_matches(char::is_numeric).to_string());
        assert_eq!(mapped.label(), "b");
        assert_eq!(mapped.children()[0].label(), "b");
    }
}
