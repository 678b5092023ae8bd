//! An arena-based miniature DOM.
//!
//! Nodes have a tag, an optional class, optional text, and children. The
//! arena keeps parent links, which induction needs for lowest-common-ancestor
//! computations. This is deliberately *not* HTML — no attributes beyond
//! class, no namespaces — because wrapper induction logic only depends on the
//! tree/template structure, not on markup incidentals.

/// Index of a node within its [`Doc`] arena.
pub type NodeId = usize;

/// One node.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Element tag, e.g. `div`.
    pub tag: String,
    /// Optional class attribute.
    pub class: Option<String>,
    /// Optional text content (leaf text).
    pub text: Option<String>,
    /// Parent node (None for the root).
    pub parent: Option<NodeId>,
    /// Children, in document order.
    pub children: Vec<NodeId>,
}

/// A document: an arena of nodes with node 0 as the root.
#[derive(Debug, Clone, PartialEq)]
pub struct Doc {
    nodes: Vec<Node>,
}

impl Doc {
    /// New document with a root of the given tag.
    pub fn new(root_tag: &str) -> Doc {
        Doc {
            nodes: vec![Node {
                tag: root_tag.to_string(),
                class: None,
                text: None,
                parent: None,
                children: Vec::new(),
            }],
        }
    }

    /// The root node id (always 0).
    pub fn root(&self) -> NodeId {
        0
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the document has only the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Append a child element under `parent`; returns the new node id.
    pub fn add_child(&mut self, parent: NodeId, tag: &str) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(Node {
            tag: tag.to_string(),
            class: None,
            text: None,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent].children.push(id);
        id
    }

    /// Append a child with class and text in one call.
    pub fn add_leaf(
        &mut self,
        parent: NodeId,
        tag: &str,
        class: Option<&str>,
        text: &str,
    ) -> NodeId {
        let id = self.add_child(parent, tag);
        if let Some(c) = class {
            self.set_class(id, c);
        }
        self.set_text(id, text);
        id
    }

    /// Set a node's class.
    pub fn set_class(&mut self, id: NodeId, class: &str) {
        self.nodes[id].class = Some(class.to_string());
    }

    /// Set a node's text.
    fn set_text(&mut self, id: NodeId, text: &str) {
        self.nodes[id].text = Some(text.to_string());
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Iterate all node ids in pre-order (document order).
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root()];
        while let Some(id) = stack.pop() {
            out.push(id);
            // Push children reversed so they pop in order.
            for &c in self.nodes[id].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// All descendants of `id` (excluding `id`), in document order.
    pub fn descendants(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack: Vec<NodeId> = self.nodes[id].children.iter().rev().copied().collect();
        while let Some(n) = stack.pop() {
            out.push(n);
            for &c in self.nodes[n].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// True if `anc` is an ancestor of `id` (or equal).
    pub fn is_ancestor(&self, anc: NodeId, id: NodeId) -> bool {
        let mut cur = Some(id);
        while let Some(n) = cur {
            if n == anc {
                return true;
            }
            cur = self.nodes[n].parent;
        }
        false
    }

    /// Concatenated text of a node's subtree (own text first).
    pub fn text_of(&self, id: NodeId) -> String {
        let mut out = String::new();
        if let Some(t) = &self.nodes[id].text {
            out.push_str(t);
        }
        for &c in &self.nodes[id].children {
            let t = self.text_of(c);
            if !t.is_empty() {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(&t);
            }
        }
        out
    }

    /// Render as indented pseudo-HTML (debugging aid).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_node(self.root(), 0, &mut out);
        out
    }

    fn render_node(&self, id: NodeId, depth: usize, out: &mut String) {
        let n = &self.nodes[id];
        out.push_str(&"  ".repeat(depth));
        out.push('<');
        out.push_str(&n.tag);
        if let Some(c) = &n.class {
            out.push_str(&format!(" class=\"{c}\""));
        }
        out.push('>');
        if let Some(t) = &n.text {
            out.push_str(t);
        }
        out.push('\n');
        for &c in &n.children {
            self.render_node(c, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Doc, NodeId, NodeId, NodeId) {
        let mut d = Doc::new("html");
        let body = d.add_child(d.root(), "body");
        let item = d.add_child(body, "div");
        d.set_class(item, "item");
        let name = d.add_leaf(item, "span", Some("name"), "Widget");
        let price = d.add_leaf(item, "span", Some("price"), "9.99");
        (d, item, name, price)
    }

    #[test]
    fn construction_and_access() {
        let (d, item, name, _) = sample();
        assert_eq!(d.node(name).text.as_deref(), Some("Widget"));
        assert_eq!(d.node(item).class.as_deref(), Some("item"));
        assert_eq!(d.node(name).parent, Some(item));
        assert_eq!(d.node(item).children.len(), 2);
    }

    #[test]
    fn preorder_visits_all_in_document_order() {
        let (d, ..) = sample();
        let order = d.preorder();
        assert_eq!(order.len(), d.len());
        assert_eq!(order[0], d.root());
        // children come after parents
        for &id in &order {
            if let Some(p) = d.node(id).parent {
                assert!(order.iter().position(|&x| x == p) < order.iter().position(|&x| x == id));
            }
        }
    }

    #[test]
    fn descendants_and_ancestry() {
        let (d, item, name, price) = sample();
        let desc = d.descendants(item);
        assert_eq!(desc, vec![name, price]);
        assert!(d.is_ancestor(d.root(), price));
        assert!(d.is_ancestor(item, item));
        assert!(!d.is_ancestor(name, item));
    }

    #[test]
    fn subtree_text_concatenation() {
        let (d, item, ..) = sample();
        assert_eq!(d.text_of(item), "Widget 9.99");
    }

    #[test]
    fn render_shows_structure() {
        let (d, ..) = sample();
        let html = d.render();
        assert!(html.contains("<span class=\"price\">9.99"));
    }
}
