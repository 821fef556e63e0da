//! The message format graph (paper §V-A).
//!
//! A [`FormatGraph`] describes every abstract syntax tree that complies with
//! a protocol's message-format specification. Nodes carry the five
//! attributes of the paper — name, type, sub-nodes, parent, boundary — plus
//! an optional *auto* annotation for fields whose value is derived from the
//! message itself (length of another node, element count of a tabular).
//!
//! The graph is a tree: `Length`, `Counter` and `Optional` conditions are
//! expressed as *references* to other nodes (the dashed arrows of the
//! paper's figure 3), which [`FormatGraph::validate`] checks are resolvable
//! during a left-to-right parse.

use std::fmt;

use crate::error::SpecError;
use crate::value::{TerminalKind, Value};

/// Identifier of a node inside a [`FormatGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw index value (stable within one graph).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// How the presence of an [`NodeType::Optional`] node is decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Condition {
    /// The terminal whose (plain) value decides presence. Must be parsed
    /// before the optional node.
    pub subject: NodeId,
    /// Predicate applied to the subject's value.
    pub predicate: Predicate,
}

/// Predicate of an optional-presence condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Present iff the subject equals this value.
    Equals(Value),
    /// Present iff the subject differs from this value.
    NotEquals(Value),
    /// Present iff the subject equals one of these values.
    OneOf(Vec<Value>),
}

impl Predicate {
    /// Evaluates the predicate against a subject value.
    pub fn eval(&self, subject: &Value) -> bool {
        match self {
            Predicate::Equals(v) => subject == v,
            Predicate::NotEquals(v) => subject != v,
            Predicate::OneOf(vs) => vs.iter().any(|v| v == subject),
        }
    }
}

/// Stop rule of a [`NodeType::Repetition`] node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopRule {
    /// Elements repeat until the terminator byte string is found at the
    /// start of the remaining input; the terminator is consumed.
    Terminator(Vec<u8>),
    /// Elements repeat until the enclosing window is exhausted.
    Exhausted,
}

/// The type attribute of a node (paper §V-A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeType {
    /// Holds user data or message-related information.
    Terminal(TerminalKind),
    /// An ordered sequence of sub-nodes (concatenation).
    Sequence,
    /// A sub-node whose presence depends on the value of another node.
    Optional(Condition),
    /// A repetition of the same sub-node, count discovered while parsing.
    Repetition(StopRule),
    /// A repetition of the same sub-node whose count is given by another
    /// node (the `Counter` boundary).
    Tabular,
}

impl NodeType {
    /// Short notation used in the paper's figures (Te, S, O, R, Ta).
    pub fn notation(&self) -> &'static str {
        match self {
            NodeType::Terminal(_) => "Te",
            NodeType::Sequence => "S",
            NodeType::Optional(_) => "O",
            NodeType::Repetition(_) => "R",
            NodeType::Tabular => "Ta",
        }
    }
}

/// The boundary attribute: how the extent of the field is determined
/// (paper §V-A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Boundary {
    /// Fixed size in bytes.
    Fixed(usize),
    /// Ends with a predefined byte string (consumed, not part of the
    /// value).
    Delimited(Vec<u8>),
    /// The *plain* length of this field is carried by another (numeric
    /// terminal) node.
    Length(NodeId),
    /// For tabulars: the number of repetitions is carried by another node.
    Counter(NodeId),
    /// The field extends to the end of the enclosing window / message.
    End,
    /// The extent is the sum of the sub-nodes' extents.
    Delegated,
}

impl Boundary {
    /// Short notation used in the paper's figures.
    pub fn notation(&self) -> String {
        match self {
            Boundary::Fixed(n) => format!("F({n})"),
            Boundary::Delimited(_) => "De".to_string(),
            Boundary::Length(n) => format!("L({n})"),
            Boundary::Counter(n) => format!("C({n})"),
            Boundary::End => "E".to_string(),
            Boundary::Delegated => "Dgt".to_string(),
        }
    }

    /// The node referenced by a `Length`/`Counter` boundary, if any.
    pub fn reference(&self) -> Option<NodeId> {
        match self {
            Boundary::Length(n) | Boundary::Counter(n) => Some(*n),
            _ => None,
        }
    }
}

/// Auto-computation annotation on a terminal: the serializer fills the
/// value in; the application never sets it; the parser verifies it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AutoValue {
    /// Set by the application.
    None,
    /// Plain serialized length (in bytes) of the target subtree.
    LengthOf(NodeId),
    /// Number of elements of the target tabular/repetition node.
    CounterOf(NodeId),
    /// A protocol constant (magic bytes, version strings, reserved
    /// fields): emitted on serialization, checked on parse.
    Literal(Value),
}

impl AutoValue {
    /// The target node, if the field is derived from another node.
    pub fn target(&self) -> Option<NodeId> {
        match self {
            AutoValue::LengthOf(n) | AutoValue::CounterOf(n) => Some(*n),
            AutoValue::None | AutoValue::Literal(_) => None,
        }
    }

    /// True unless the field is application-set.
    pub fn is_auto(&self) -> bool {
        !matches!(self, AutoValue::None)
    }
}

/// One node of the message format graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    pub(crate) name: String,
    pub(crate) ty: NodeType,
    pub(crate) boundary: Boundary,
    pub(crate) children: Vec<NodeId>,
    pub(crate) parent: Option<NodeId>,
    pub(crate) auto: AutoValue,
}

impl Node {
    /// Node name (unique among siblings).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Node type attribute.
    pub fn node_type(&self) -> &NodeType {
        &self.ty
    }

    /// Boundary attribute.
    pub fn boundary(&self) -> &Boundary {
        &self.boundary
    }

    /// Child node ids, in message order.
    pub fn children(&self) -> &[NodeId] {
        &self.children
    }

    /// Parent node id (`None` for the root).
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Auto-computation annotation.
    pub fn auto(&self) -> &AutoValue {
        &self.auto
    }

    /// True if this node is a terminal.
    pub fn is_terminal(&self) -> bool {
        matches!(self.ty, NodeType::Terminal(_))
    }

    /// The terminal kind, if this node is a terminal.
    pub fn terminal_kind(&self) -> Option<&TerminalKind> {
        match &self.ty {
            NodeType::Terminal(k) => Some(k),
            _ => None,
        }
    }
}

/// A validated message format graph (the paper's `G1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatGraph {
    name: String,
    nodes: Vec<Node>,
    root: NodeId,
}

impl FormatGraph {
    /// Protocol / message-type name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Borrow a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Fallible node lookup.
    pub fn get(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.index())
    }

    /// Number of nodes in the graph.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes (never true for validated graphs).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates node ids in creation order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Pre-order (document order) traversal from the root — the parse and
    /// serialization order of the plain protocol.
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            out.push(id);
            for &c in self.node(id).children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// All node ids in the subtree rooted at `id` (pre-order).
    pub fn subtree(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            out.push(n);
            for &c in self.node(n).children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// True if `descendant` is inside the subtree rooted at `ancestor`
    /// (a node is its own descendant).
    pub fn is_descendant(&self, descendant: NodeId, ancestor: NodeId) -> bool {
        let mut cur = Some(descendant);
        while let Some(id) = cur {
            if id == ancestor {
                return true;
            }
            cur = self.node(id).parent;
        }
        false
    }

    /// Depth of a node (root has depth 0).
    pub fn depth(&self, id: NodeId) -> usize {
        let mut d = 0;
        let mut cur = self.node(id).parent;
        while let Some(p) = cur {
            d += 1;
            cur = self.node(p).parent;
        }
        d
    }

    /// The nodes that reference `id` as a `Length`/`Counter` source or as
    /// an optional-condition subject.
    pub fn referencing(&self, id: NodeId) -> Vec<NodeId> {
        self.ids()
            .filter(|&n| {
                let node = self.node(n);
                node.boundary.reference() == Some(id)
                    || matches!(&node.ty, NodeType::Optional(c) if c.subject == id)
                    || node.auto.target() == Some(id)
            })
            .collect()
    }

    /// Resolves a dotted path of child names starting at the root.
    ///
    /// Optional, repetition and tabular nodes are *transparent*: after
    /// naming them the path continues into their single child. See
    /// [`crate::path`] for the indexed form used on message instances.
    pub fn resolve_names(&self, path: &[&str]) -> Option<NodeId> {
        let mut cur = self.root;
        for (i, seg) in path.iter().enumerate() {
            if i == 0 && self.node(cur).name == *seg {
                continue;
            }
            cur = self.find_child(cur, seg)?;
        }
        Some(cur)
    }

    fn find_child(&self, at: NodeId, name: &str) -> Option<NodeId> {
        let node = self.node(at);
        match node.ty {
            NodeType::Optional(_) | NodeType::Repetition(_) | NodeType::Tabular => {
                // Transparent wrappers: look through the single child.
                let child = *node.children.first()?;
                if self.node(child).name == name {
                    Some(child)
                } else {
                    self.find_child(child, name)
                }
            }
            _ => node.children.iter().copied().find(|&c| self.node(c).name == name),
        }
    }

    /// Validates the structural invariants of the specification.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: tree shape, sibling-name
    /// uniqueness, type/boundary consistency, reference resolvability
    /// (backward references only), numeric reference targets, delimiter
    /// non-emptiness, and width consistency.
    ///
    /// Allocates nothing unless it fails: every check walks parent
    /// pointers and child lists in place, and names are cloned only into
    /// the error.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.nodes.is_empty() {
            return Err(SpecError::EmptyGraph);
        }
        self.check_tree()?;
        self.check_names()?;
        for id in self.ids() {
            self.check_node(id)?;
        }
        self.check_references()?;
        self.check_nesting()?;
        Ok(())
    }

    /// Element scopes are stored inline in the message/plan stores
    /// ([`crate::message::MAX_SCOPE`] indices), so repetition/tabular
    /// nesting is bounded instead of heap-spilled.
    fn check_nesting(&self) -> Result<(), SpecError> {
        for id in self.ids() {
            let depth = self.containers(id).count();
            if depth > crate::message::MAX_SCOPE {
                return Err(SpecError::NestingTooDeep {
                    node: self.node(id).name.clone(),
                    depth,
                    max: crate::message::MAX_SCOPE,
                });
            }
        }
        Ok(())
    }

    /// Every node reachable from the root exactly once, parents agreeing
    /// with child lists: each listed child names its lister as parent, and
    /// each other node climbs to the root through parents that list it
    /// once, in fewer steps than there are nodes.
    fn check_tree(&self) -> Result<(), SpecError> {
        let n = self.nodes.len();
        let not_a_tree = |id: NodeId| SpecError::NotATree { node: self.node(id).name.clone() };
        if self.root.index() >= n {
            return Err(SpecError::UnknownNode(self.root.0));
        }
        for id in self.ids() {
            for &c in &self.node(id).children {
                if c.index() >= n {
                    return Err(SpecError::UnknownNode(c.0));
                }
                if self.node(c).parent != Some(id) {
                    return Err(not_a_tree(c));
                }
            }
        }
        for id in self.ids() {
            let mut cur = id;
            for _ in 0..n {
                if cur == self.root {
                    break;
                }
                match self.node(cur).parent.filter(|p| p.index() < n) {
                    Some(p) if self.node(p).children.iter().filter(|&&c| c == cur).count() == 1 => {
                        cur = p;
                    }
                    _ => return Err(not_a_tree(id)),
                }
            }
            if cur != self.root {
                return Err(not_a_tree(id));
            }
        }
        Ok(())
    }

    /// Sibling names are unique. Of several duplicated names under one
    /// parent, the first in byte order is reported.
    fn check_names(&self) -> Result<(), SpecError> {
        for node in &self.nodes {
            let mut duplicate: Option<&str> = None;
            for (i, &a) in node.children.iter().enumerate() {
                let a = self.node(a).name();
                let repeated = node.children[i + 1..].iter().any(|&b| self.node(b).name() == a);
                if repeated && duplicate.is_none_or(|d| a < d) {
                    duplicate = Some(a);
                }
            }
            if let Some(name) = duplicate {
                return Err(SpecError::DuplicateSiblingName {
                    parent: node.name.clone(),
                    name: name.to_string(),
                });
            }
        }
        Ok(())
    }

    fn check_node(&self, id: NodeId) -> Result<(), SpecError> {
        let node = self.node(id);
        let name = || node.name.clone();
        match &node.ty {
            NodeType::Terminal(kind) => {
                if !node.children.is_empty() {
                    return Err(SpecError::TerminalWithChildren { node: name() });
                }
                match &node.boundary {
                    Boundary::Fixed(n) => {
                        if let Some(w) = kind.implied_width() {
                            if w != *n {
                                return Err(SpecError::WidthMismatch {
                                    node: name(),
                                    expected: w,
                                    found: *n,
                                });
                            }
                        }
                        if *n == 0 {
                            return Err(SpecError::InconsistentBoundary {
                                node: name(),
                                detail: "fixed size must be > 0".into(),
                            });
                        }
                    }
                    Boundary::Delimited(d) => {
                        if d.is_empty() {
                            return Err(SpecError::EmptyDelimiter { node: name() });
                        }
                    }
                    Boundary::Length(_) | Boundary::End => {}
                    other => {
                        return Err(SpecError::InconsistentBoundary {
                            node: name(),
                            detail: format!("terminal cannot have boundary {}", other.notation()),
                        });
                    }
                }
                match &node.auto {
                    AutoValue::None => {}
                    AutoValue::LengthOf(t) | AutoValue::CounterOf(t) => {
                        let t = *t;
                        if !kind.is_numeric() {
                            return Err(SpecError::BadAutoTarget {
                                node: name(),
                                detail: "auto fields must be unsigned integers".into(),
                            });
                        }
                        if self.get(t).is_none() {
                            return Err(SpecError::UnknownNode(t.0));
                        }
                        if matches!(node.auto, AutoValue::CounterOf(_)) {
                            let tt = &self.node(t).ty;
                            if !matches!(tt, NodeType::Tabular | NodeType::Repetition(_)) {
                                return Err(SpecError::BadAutoTarget {
                                    node: name(),
                                    detail: "counter-of target must be tabular or repetition"
                                        .into(),
                                });
                            }
                        }
                    }
                    AutoValue::Literal(v) => {
                        if let Some(w) = kind.implied_width() {
                            if v.len() != w {
                                return Err(SpecError::BadAutoTarget {
                                    node: name(),
                                    detail: format!(
                                        "literal is {} byte(s) but the field is {w}",
                                        v.len()
                                    ),
                                });
                            }
                        }
                        if let Boundary::Fixed(k) = &node.boundary {
                            if v.len() != *k {
                                return Err(SpecError::BadAutoTarget {
                                    node: name(),
                                    detail: format!(
                                        "literal is {} byte(s) but the field is fixed at {k}",
                                        v.len()
                                    ),
                                });
                            }
                        }
                        if let Boundary::Delimited(d) = &node.boundary {
                            if crate::runtime::contains(v.as_bytes(), d) {
                                return Err(SpecError::BadAutoTarget {
                                    node: name(),
                                    detail: "literal contains the field delimiter".into(),
                                });
                            }
                        }
                    }
                }
            }
            NodeType::Sequence => {
                if node.children.is_empty() {
                    return Err(SpecError::ChildArity {
                        node: name(),
                        expected: "one or more",
                        found: 0,
                    });
                }
                match &node.boundary {
                    Boundary::Delegated
                    | Boundary::End
                    | Boundary::Fixed(_)
                    | Boundary::Length(_) => {}
                    other => {
                        return Err(SpecError::InconsistentBoundary {
                            node: name(),
                            detail: format!("sequence cannot have boundary {}", other.notation()),
                        });
                    }
                }
            }
            NodeType::Optional(cond) => {
                if node.children.len() != 1 {
                    return Err(SpecError::ChildArity {
                        node: name(),
                        expected: "exactly one",
                        found: node.children.len(),
                    });
                }
                if self.get(cond.subject).is_none() {
                    return Err(SpecError::UnknownNode(cond.subject.0));
                }
                if !matches!(node.boundary, Boundary::Delegated) {
                    return Err(SpecError::InconsistentBoundary {
                        node: name(),
                        detail: "optional nodes delegate their boundary to the child".into(),
                    });
                }
            }
            NodeType::Repetition(stop) => {
                if node.children.len() != 1 {
                    return Err(SpecError::ChildArity {
                        node: name(),
                        expected: "exactly one",
                        found: node.children.len(),
                    });
                }
                if let StopRule::Terminator(t) = stop {
                    if t.is_empty() {
                        return Err(SpecError::EmptyDelimiter { node: name() });
                    }
                }
                if !matches!(node.boundary, Boundary::Delegated | Boundary::End) {
                    return Err(SpecError::InconsistentBoundary {
                        node: name(),
                        detail: "repetition boundary must be Delegated or End".into(),
                    });
                }
            }
            NodeType::Tabular => {
                if node.children.len() != 1 {
                    return Err(SpecError::ChildArity {
                        node: name(),
                        expected: "exactly one",
                        found: node.children.len(),
                    });
                }
                if !matches!(node.boundary, Boundary::Counter(_)) {
                    return Err(SpecError::InconsistentBoundary {
                        node: name(),
                        detail: "tabular boundary must be Counter(<node>)".into(),
                    });
                }
            }
        }
        Ok(())
    }

    /// The strict ancestors of `id`, nearest first.
    fn ancestors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::successors(self.node(id).parent, |&p| self.node(p).parent)
    }

    /// The repetition/tabular ancestors of `id`, nearest first.
    fn containers(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.ancestors(id)
            .filter(|&p| matches!(self.node(p).ty, NodeType::Repetition(_) | NodeType::Tabular))
    }

    /// True if the whole subtree of `referenced` comes before `user` in
    /// pre-order: neither is inside the other, and below their nearest
    /// common ancestor `referenced`'s branch is the earlier child.
    fn parsed_before(&self, referenced: NodeId, user: NodeId) -> bool {
        if self.is_descendant(user, referenced) || self.is_descendant(referenced, user) {
            return false;
        }
        // Climb both to one depth, then together to just below their
        // common ancestor.
        let (mut r, mut u) = (referenced, user);
        let (mut dr, mut du) = (self.depth(r), self.depth(u));
        while dr > du {
            (r, dr) = (self.node(r).parent.expect("deeper than the root"), dr - 1);
        }
        while du > dr {
            (u, du) = (self.node(u).parent.expect("deeper than the root"), du - 1);
        }
        while self.node(r).parent != self.node(u).parent {
            r = self.node(r).parent.expect("below the common ancestor");
            u = self.node(u).parent.expect("below the common ancestor");
        }
        let parent = self.node(r).parent.expect("neither is the root");
        let siblings = &self.node(parent).children;
        let index = |c: NodeId| siblings.iter().position(|&s| s == c);
        index(r) < index(u)
    }

    fn check_references(&self) -> Result<(), SpecError> {
        let check = |user: NodeId, referenced: NodeId| -> Result<(), SpecError> {
            if self.get(referenced).is_none() {
                return Err(SpecError::UnknownNode(referenced.0));
            }
            let forward = || SpecError::ForwardReference {
                node: self.node(user).name.clone(),
                referenced: self.node(referenced).name.clone(),
            };
            // The referenced subtree must be completely parsed before the
            // user starts (strictly backward reference).
            if !self.parsed_before(referenced, user) {
                return Err(forward());
            }
            // Scope visibility: the referenced node's repetition/tabular
            // chain must be a prefix of the user's — an out-of-scope
            // reference has no well-defined element instance. Containers
            // nest, so that holds when the referenced node's innermost
            // container (if any) is an ancestor of the user…
            if self
                .containers(referenced)
                .next()
                .is_some_and(|c| !self.ancestors(user).any(|a| a == c))
            {
                return Err(forward());
            }
            // …and the referenced node must not sit inside an optional
            // subtree the user is outside of (the value may be absent).
            for opt in self.ancestors(referenced) {
                if matches!(self.node(opt).ty, NodeType::Optional(_))
                    && !self.is_descendant(user, opt)
                {
                    return Err(forward());
                }
            }
            Ok(())
        };
        for id in self.ids() {
            let node = self.node(id);
            if let Some(r) = node.boundary.reference() {
                check(id, r)?;
                let target = self.node(r);
                if !target.terminal_kind().map(TerminalKind::is_numeric).unwrap_or(false) {
                    return Err(SpecError::NonNumericReference {
                        node: node.name.clone(),
                        referenced: target.name.clone(),
                    });
                }
            }
            if let NodeType::Optional(cond) = &node.ty {
                check(id, cond.subject)?;
                if !self.node(cond.subject).is_terminal() {
                    return Err(SpecError::NonNumericReference {
                        node: node.name.clone(),
                        referenced: self.node(cond.subject).name.clone(),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Incremental builder for [`FormatGraph`] (see the crate examples).
///
/// The builder hands out [`NodeId`]s as nodes are added; `Length`/`Counter`
/// boundaries and optional conditions may therefore only reference nodes
/// added earlier, which matches the backward-reference validation rule.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    name: String,
    nodes: Vec<Node>,
    root: Option<NodeId>,
}

impl GraphBuilder {
    /// Starts a new graph with the given protocol name.
    pub fn new(name: impl Into<String>) -> Self {
        GraphBuilder { name: name.into(), nodes: Vec::new(), root: None }
    }

    fn push(&mut self, parent: Option<NodeId>, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        if let Some(p) = parent {
            self.nodes[p.index()].children.push(id);
        } else if self.root.is_none() {
            self.root = Some(id);
        }
        id
    }

    /// Adds the root node (a sequence). Must be called first.
    pub fn root_sequence(&mut self, name: impl Into<String>, boundary: Boundary) -> NodeId {
        assert!(self.root.is_none(), "root already added");
        self.push(
            None,
            Node {
                name: name.into(),
                ty: NodeType::Sequence,
                boundary,
                children: Vec::new(),
                parent: None,
                auto: AutoValue::None,
            },
        )
    }

    /// Adds a sequence node under `parent`.
    pub fn sequence(
        &mut self,
        parent: NodeId,
        name: impl Into<String>,
        boundary: Boundary,
    ) -> NodeId {
        self.push(
            Some(parent),
            Node {
                name: name.into(),
                ty: NodeType::Sequence,
                boundary,
                children: Vec::new(),
                parent: Some(parent),
                auto: AutoValue::None,
            },
        )
    }

    /// Adds a terminal node under `parent`.
    pub fn terminal(
        &mut self,
        parent: NodeId,
        name: impl Into<String>,
        kind: TerminalKind,
        boundary: Boundary,
    ) -> NodeId {
        self.push(
            Some(parent),
            Node {
                name: name.into(),
                ty: NodeType::Terminal(kind),
                boundary,
                children: Vec::new(),
                parent: Some(parent),
                auto: AutoValue::None,
            },
        )
    }

    /// Adds a big-endian unsigned integer terminal of `width` bytes.
    pub fn uint_be(&mut self, parent: NodeId, name: impl Into<String>, width: usize) -> NodeId {
        self.terminal(parent, name, TerminalKind::uint_be(width), Boundary::Fixed(width))
    }

    /// Sets the auto annotation of an already-added terminal.
    pub fn set_auto(&mut self, field: NodeId, auto: AutoValue) {
        self.nodes[field.index()].auto = auto;
    }

    /// Adds a constant terminal: the serializer emits `literal`, the
    /// parser verifies it (magic bytes, version strings, reserved fields).
    pub fn literal(
        &mut self,
        parent: NodeId,
        name: impl Into<String>,
        kind: TerminalKind,
        boundary: Boundary,
        literal: Value,
    ) -> NodeId {
        let id = self.terminal(parent, name, kind, boundary);
        self.set_auto(id, AutoValue::Literal(literal));
        id
    }

    /// Adds an optional node under `parent` with a presence condition.
    pub fn optional(
        &mut self,
        parent: NodeId,
        name: impl Into<String>,
        condition: Condition,
    ) -> NodeId {
        self.push(
            Some(parent),
            Node {
                name: name.into(),
                ty: NodeType::Optional(condition),
                boundary: Boundary::Delegated,
                children: Vec::new(),
                parent: Some(parent),
                auto: AutoValue::None,
            },
        )
    }

    /// Adds a repetition node under `parent`.
    pub fn repetition(
        &mut self,
        parent: NodeId,
        name: impl Into<String>,
        stop: StopRule,
        boundary: Boundary,
    ) -> NodeId {
        self.push(
            Some(parent),
            Node {
                name: name.into(),
                ty: NodeType::Repetition(stop),
                boundary,
                children: Vec::new(),
                parent: Some(parent),
                auto: AutoValue::None,
            },
        )
    }

    /// Adds a tabular node under `parent`, counted by `counter`.
    pub fn tabular(&mut self, parent: NodeId, name: impl Into<String>, counter: NodeId) -> NodeId {
        self.push(
            Some(parent),
            Node {
                name: name.into(),
                ty: NodeType::Tabular,
                boundary: Boundary::Counter(counter),
                children: Vec::new(),
                parent: Some(parent),
                auto: AutoValue::None,
            },
        )
    }

    /// Finishes and validates the graph.
    ///
    /// # Errors
    ///
    /// Returns any invariant violation found by [`FormatGraph::validate`].
    pub fn build(self) -> Result<FormatGraph, SpecError> {
        let root = self.root.ok_or(SpecError::EmptyGraph)?;
        let graph = FormatGraph { name: self.name, nodes: self.nodes, root };
        graph.validate()?;
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Endian;

    /// Builds the paper's figure-3 style Modbus excerpt: header with a
    /// length field, a function code, and two optional bodies.
    fn sample_graph() -> FormatGraph {
        let mut b = GraphBuilder::new("modbus-mini");
        let root = b.root_sequence("frame", Boundary::End);
        let _tid = b.uint_be(root, "transaction_id", 2);
        let len = b.uint_be(root, "length", 2);
        let pdu = b.sequence(root, "pdu", Boundary::Delegated);
        b.set_auto(len, AutoValue::LengthOf(pdu));
        let func = b.uint_be(pdu, "function", 1);
        let body1 = b.optional(
            pdu,
            "read_coils",
            Condition { subject: func, predicate: Predicate::Equals(Value::from_bytes(vec![1])) },
        );
        let seq1 = b.sequence(body1, "read_coils_body", Boundary::Delegated);
        b.uint_be(seq1, "start", 2);
        b.uint_be(seq1, "count", 2);
        let body2 = b.optional(
            pdu,
            "write_single",
            Condition { subject: func, predicate: Predicate::Equals(Value::from_bytes(vec![5])) },
        );
        let seq2 = b.sequence(body2, "write_single_body", Boundary::Delegated);
        b.uint_be(seq2, "address", 2);
        b.uint_be(seq2, "value", 2);
        b.build().unwrap()
    }

    #[test]
    fn build_and_validate_sample() {
        let g = sample_graph();
        assert_eq!(g.name(), "modbus-mini");
        assert!(g.len() >= 10);
        assert_eq!(g.node(g.root()).name(), "frame");
    }

    #[test]
    fn preorder_starts_at_root_and_covers_all() {
        let g = sample_graph();
        let order = g.preorder();
        assert_eq!(order[0], g.root());
        assert_eq!(order.len(), g.len());
    }

    #[test]
    fn resolve_names_descends_through_wrappers() {
        let g = sample_graph();
        let start = g.resolve_names(&["pdu", "read_coils", "read_coils_body", "start"]).unwrap();
        assert_eq!(g.node(start).name(), "start");
        // Optional wrapper is transparent after being named.
        let start2 = g.resolve_names(&["pdu", "read_coils", "start"]).unwrap();
        assert_eq!(start, start2);
        assert!(g.resolve_names(&["pdu", "nonsense"]).is_none());
    }

    #[test]
    fn referencing_reports_auto_and_condition_users() {
        let g = sample_graph();
        let pdu = g.resolve_names(&["pdu"]).unwrap();
        let len = g.resolve_names(&["length"]).unwrap();
        assert!(g.referencing(pdu).contains(&len));
        let func = g.resolve_names(&["pdu", "function"]).unwrap();
        assert_eq!(g.referencing(func).len(), 2); // two optionals test it
    }

    #[test]
    fn depth_and_descendant() {
        let g = sample_graph();
        let start = g.resolve_names(&["pdu", "read_coils", "start"]).unwrap();
        let pdu = g.resolve_names(&["pdu"]).unwrap();
        assert!(g.is_descendant(start, pdu));
        assert!(!g.is_descendant(pdu, start));
        assert_eq!(g.depth(g.root()), 0);
        assert_eq!(g.depth(start), 4); // frame > pdu > optional > body > start
    }

    #[test]
    fn duplicate_sibling_names_rejected() {
        let mut b = GraphBuilder::new("dup");
        let root = b.root_sequence("m", Boundary::End);
        b.uint_be(root, "x", 1);
        b.uint_be(root, "x", 1);
        assert!(matches!(b.build(), Err(SpecError::DuplicateSiblingName { .. })));
    }

    #[test]
    fn forward_reference_rejected() {
        let mut b = GraphBuilder::new("fwd");
        let root = b.root_sequence("m", Boundary::End);
        // data's length field comes *after* data in message order.
        let data = b.terminal(root, "data", TerminalKind::Bytes, Boundary::End);
        let len = b.uint_be(root, "len", 2);
        // Rewrite data's boundary to point at the later field.
        b.nodes[data.index()].boundary = Boundary::Length(len);
        assert!(matches!(b.build(), Err(SpecError::ForwardReference { .. })));
    }

    #[test]
    fn length_reference_must_be_numeric() {
        let mut b = GraphBuilder::new("nonnum");
        let root = b.root_sequence("m", Boundary::End);
        let s = b.terminal(root, "s", TerminalKind::Ascii, Boundary::Delimited(vec![b' ']));
        let data = b.terminal(root, "data", TerminalKind::Bytes, Boundary::End);
        b.nodes[data.index()].boundary = Boundary::Length(s);
        assert!(matches!(b.build(), Err(SpecError::NonNumericReference { .. })));
    }

    #[test]
    fn tabular_requires_counter_boundary() {
        let mut b = GraphBuilder::new("tab");
        let root = b.root_sequence("m", Boundary::End);
        let count = b.uint_be(root, "count", 1);
        let tab = b.tabular(root, "items", count);
        b.uint_be(tab, "item", 2);
        b.set_auto(count, AutoValue::CounterOf(tab));
        let g = b.build().unwrap();
        assert_eq!(g.node(tab).boundary(), &Boundary::Counter(count));
    }

    #[test]
    fn counter_auto_target_must_be_tabular() {
        let mut b = GraphBuilder::new("badauto");
        let root = b.root_sequence("m", Boundary::End);
        let count = b.uint_be(root, "count", 1);
        let x = b.uint_be(root, "x", 2);
        b.set_auto(count, AutoValue::CounterOf(x));
        assert!(matches!(b.build(), Err(SpecError::BadAutoTarget { .. })));
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut b = GraphBuilder::new("w");
        let root = b.root_sequence("m", Boundary::End);
        b.terminal(root, "x", TerminalKind::uint_be(2), Boundary::Fixed(3));
        assert!(matches!(b.build(), Err(SpecError::WidthMismatch { .. })));
    }

    #[test]
    fn empty_delimiter_rejected() {
        let mut b = GraphBuilder::new("d");
        let root = b.root_sequence("m", Boundary::End);
        b.terminal(root, "x", TerminalKind::Ascii, Boundary::Delimited(vec![]));
        assert!(matches!(b.build(), Err(SpecError::EmptyDelimiter { .. })));
    }

    #[test]
    fn empty_sequence_rejected() {
        let mut b = GraphBuilder::new("e");
        let root = b.root_sequence("m", Boundary::End);
        b.sequence(root, "empty", Boundary::Delegated);
        assert!(matches!(b.build(), Err(SpecError::ChildArity { .. })));
    }

    #[test]
    fn predicate_eval() {
        let v = Value::from_bytes(vec![1]);
        assert!(Predicate::Equals(v.clone()).eval(&v));
        assert!(!Predicate::NotEquals(v.clone()).eval(&v));
        assert!(Predicate::OneOf(vec![Value::from_bytes(vec![2]), v.clone()]).eval(&v));
    }

    #[test]
    fn notations_match_paper() {
        assert_eq!(NodeType::Sequence.notation(), "S");
        assert_eq!(NodeType::Tabular.notation(), "Ta");
        assert_eq!(Boundary::Fixed(4).notation(), "F(4)");
        assert_eq!(Boundary::Delegated.notation(), "Dgt");
        assert_eq!(Boundary::End.notation(), "E");
        let _ = TerminalKind::UInt { width: 2, endian: Endian::Big };
    }
}
