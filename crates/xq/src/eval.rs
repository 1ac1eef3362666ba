//! The query evaluator.
//!
//! Evaluation is eager and sequence-valued. Node navigation goes through
//! [`NodeRef`], so evaluating a query against registry tuples never clones
//! tuple content; only constructed results allocate new trees.
//!
//! A work counter guards against runaway queries: every expression
//! evaluation ticks it, and [`DynamicContext::with_work_limit`] lets P2P
//! nodes bound the effort spent per query (dissertation section 4.8,
//! "Throttling", applies the same idea at the registry level).

use crate::ast::*;
use crate::error::{XqError, XqResult};
use crate::functions;
use crate::value::{
    document_order_dedup, effective_boolean, number_of_str, Item, NodeKind, NodeRef, Sequence,
};
use std::borrow::Cow;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wsda_xml::{name_matches, Element, XmlNode};

/// Documents constructed at runtime receive ordinals above this base so they
/// sort after any realistic input tuple set in document order.
const CONSTRUCTED_DOC_BASE: u64 = 1 << 48;

static NEXT_CONSTRUCTED_ORD: AtomicU64 = AtomicU64::new(CONSTRUCTED_DOC_BASE);

fn next_constructed_ord() -> u64 {
    NEXT_CONSTRUCTED_ORD.fetch_add(1, Ordering::Relaxed)
}

/// The dynamic evaluation context: variable bindings, context item/position,
/// the root documents a `/`-path starts from, and resource guards.
#[derive(Debug, Clone)]
pub struct DynamicContext {
    scopes: Vec<(String, Sequence)>,
    roots: Sequence,
    context_item: Option<Item>,
    position: usize,
    size: usize,
    depth: u32,
    work: u64,
    work_limit: u64,
    hoist_invariants: bool,
}

/// Maximum expression nesting during evaluation.
const MAX_DEPTH: u32 = 256;

impl Default for DynamicContext {
    fn default() -> Self {
        DynamicContext {
            scopes: Vec::new(),
            roots: Vec::new(),
            context_item: None,
            position: 0,
            size: 0,
            depth: 0,
            work: 0,
            work_limit: u64::MAX,
            hoist_invariants: true,
        }
    }
}

impl DynamicContext {
    /// An empty context (no roots, no variables).
    pub fn new() -> Self {
        Self::default()
    }

    /// A context whose `/` paths start from the given documents, in order.
    /// Each document receives its index as document ordinal.
    #[allow(clippy::field_reassign_with_default)]
    pub fn with_roots(roots: Vec<Arc<Element>>) -> Self {
        let mut ctx = Self::default();
        ctx.roots = roots
            .into_iter()
            .enumerate()
            .map(|(i, r)| Item::Node(NodeRef::document_node(r, i as u64)))
            .collect();
        ctx
    }

    /// A context over pre-built root references (the registry uses this to
    /// keep stable tuple ordinals across queries).
    #[allow(clippy::field_reassign_with_default)]
    pub fn with_root_refs(roots: Vec<NodeRef>) -> Self {
        let mut ctx = Self::default();
        ctx.roots = roots.into_iter().map(Item::Node).collect();
        ctx
    }

    /// Bound the number of expression evaluations allowed.
    pub fn with_work_limit(mut self, limit: u64) -> Self {
        self.work_limit = limit;
        self
    }

    /// Enable/disable hoisting of loop-invariant FLWOR sources (enabled by
    /// default; the ablation benchmark turns it off to quantify the win).
    pub fn with_hoisting(mut self, enabled: bool) -> Self {
        self.hoist_invariants = enabled;
        self
    }

    /// Bind a variable visible to the whole query (e.g. `$now`).
    pub fn bind(&mut self, name: impl Into<String>, value: Sequence) {
        self.scopes.push((name.into(), value));
    }

    /// Expression evaluations performed so far.
    pub fn work(&self) -> u64 {
        self.work
    }

    fn lookup(&self, name: &str) -> Option<&Sequence> {
        self.scopes.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    fn push_scope(&mut self, name: &str, value: Sequence) {
        self.scopes.push((name.to_owned(), value));
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    /// The current context item (used by relative paths and `.`).
    pub fn context_item(&self) -> Option<&Item> {
        self.context_item.as_ref()
    }

    /// 1-based position of the context item in its focus sequence.
    pub fn position(&self) -> usize {
        self.position
    }

    /// Size of the current focus sequence.
    pub fn size(&self) -> usize {
        self.size
    }
}

/// Evaluate an expression in a context.
pub fn eval(expr: &Expr, ctx: &mut DynamicContext) -> XqResult<Sequence> {
    tick(ctx, 1)?;
    ctx.depth += 1;
    if ctx.depth > MAX_DEPTH {
        ctx.depth -= 1;
        return Err(XqError::ResourceLimit("recursion depth"));
    }
    let out = eval_inner(expr, ctx);
    ctx.depth -= 1;
    if let Ok(seq) = &out {
        // Work accounts for produced items as well as expression nodes, so
        // queries that materialize huge sequences hit the budget promptly.
        tick(ctx, seq.len())?;
    }
    out
}

/// Charge `n` units of work against the limit.
fn tick(ctx: &mut DynamicContext, n: usize) -> XqResult<()> {
    ctx.work += n as u64;
    if ctx.work > ctx.work_limit {
        return Err(XqError::ResourceLimit("work limit"));
    }
    Ok(())
}

fn eval_inner(expr: &Expr, ctx: &mut DynamicContext) -> XqResult<Sequence> {
    match expr {
        Expr::StrLit(s) => Ok(vec![Item::Str(s.clone())]),
        Expr::NumLit(n) => Ok(vec![Item::Number(*n)]),
        Expr::Empty => Ok(Vec::new()),
        Expr::VarRef(name) => {
            ctx.lookup(name).cloned().ok_or_else(|| XqError::UnboundVariable(name.clone()))
        }
        Expr::ContextItem => {
            ctx.context_item.clone().map(|i| vec![i]).ok_or(XqError::MissingContextItem)
        }
        Expr::Path { start, steps } => eval_path(start, steps, ctx),
        Expr::Filter { base, predicates } => {
            let mut seq = eval(base, ctx)?;
            apply_predicates(&mut seq, 0, predicates, ctx)?;
            Ok(seq)
        }
        Expr::Binary { op, lhs, rhs } => eval_binary(*op, lhs, rhs, ctx),
        Expr::Neg(e) => {
            let v = eval(e, ctx)?;
            match v.len() {
                0 => Ok(Vec::new()),
                1 => Ok(vec![Item::Number(-v[0].number_value())]),
                _ => Err(XqError::TypeError("unary minus over a sequence".into())),
            }
        }
        Expr::Or(a, b) => {
            let left = effective_boolean(&eval(a, ctx)?)?;
            if left {
                return Ok(vec![Item::Bool(true)]);
            }
            let right = effective_boolean(&eval(b, ctx)?)?;
            Ok(vec![Item::Bool(right)])
        }
        Expr::And(a, b) => {
            let left = effective_boolean(&eval(a, ctx)?)?;
            if !left {
                return Ok(vec![Item::Bool(false)]);
            }
            let right = effective_boolean(&eval(b, ctx)?)?;
            Ok(vec![Item::Bool(right)])
        }
        Expr::Range(lo, hi) => {
            let lo = singleton_number(eval(lo, ctx)?, "range start")?;
            let hi = singleton_number(eval(hi, ctx)?, "range end")?;
            match (lo, hi) {
                (Some(lo), Some(hi)) => {
                    let lo = lo.round() as i64;
                    let hi = hi.round() as i64;
                    if hi.saturating_sub(lo) > 10_000_000 {
                        return Err(XqError::ResourceLimit("range size"));
                    }
                    Ok((lo..=hi).map(|i| Item::Number(i as f64)).collect())
                }
                _ => Ok(Vec::new()),
            }
        }
        Expr::Comma(items) => {
            let mut out = Vec::new();
            for e in items {
                out.extend(eval(e, ctx)?);
            }
            Ok(out)
        }
        Expr::If { cond, then, els } => {
            if effective_boolean(&eval(cond, ctx)?)? {
                eval(then, ctx)
            } else {
                eval(els, ctx)
            }
        }
        Expr::Flwor { clauses, where_, order_by, ret } => {
            eval_flwor(clauses, where_.as_deref(), order_by, ret, ctx)
        }
        Expr::Quantified { every, var, source, satisfies } => {
            let source = eval(source, ctx)?;
            for item in source {
                ctx.push_scope(var, vec![item]);
                let ok = effective_boolean(&eval(satisfies, ctx)?);
                ctx.pop_scope();
                let ok = ok?;
                if *every && !ok {
                    return Ok(vec![Item::Bool(false)]);
                }
                if !*every && ok {
                    return Ok(vec![Item::Bool(true)]);
                }
            }
            Ok(vec![Item::Bool(*every)])
        }
        Expr::FunctionCall { name, args } => functions::call(name, args, ctx),
        Expr::Direct(d) => {
            let element = build_direct(d, ctx)?;
            Ok(vec![Item::Node(NodeRef::root(Arc::new(element), next_constructed_ord()))])
        }
        Expr::ComputedElement { name, content } => {
            let name = singleton_string(eval(name, ctx)?, "element name")?
                .ok_or_else(|| XqError::TypeError("element name is the empty sequence".into()))?;
            let mut element = Element::new(name);
            let content = eval(content, ctx)?;
            append_content(&mut element, &content)?;
            Ok(vec![Item::Node(NodeRef::root(Arc::new(element), next_constructed_ord()))])
        }
        Expr::ComputedAttribute { name, value } => {
            let name = singleton_string(eval(name, ctx)?, "attribute name")?
                .ok_or_else(|| XqError::TypeError("attribute name is the empty sequence".into()))?;
            let value = eval(value, ctx)?;
            let text = atomize_joined(&value);
            // A detached attribute is carried on an anonymous owner element.
            let owner = Element::new("#attr").with_attr(name.as_str(), text);
            let root = NodeRef::root(Arc::new(owner), next_constructed_ord());
            Ok(vec![Item::Node(root.attribute(&name).expect("attribute was just set"))])
        }
    }
}

// ==== paths ==============================================================

/// Which nodes a path step runs from, for each of its input nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// The input node itself.
    Node,
    /// `//` opening a path: the input node, whatever its kind, then its
    /// descendant elements in document order.
    RootDescendants,
    /// `//` mid-path (`descendant-or-self::node()`): the input node if it
    /// is an element, then its descendant elements in document order.
    Descendants,
}

fn eval_path(start: &PathStart, steps: &[Step], ctx: &mut DynamicContext) -> XqResult<Sequence> {
    let mut current = match start {
        PathStart::Root => {
            let roots = ctx.roots.clone();
            apply_steps(&roots, Origin::Node, steps, ctx)?
        }
        // `//a` == `/descendant-or-self::node()/child::a`
        PathStart::RootDescendant => {
            let roots = ctx.roots.clone();
            apply_steps(&roots, Origin::RootDescendants, steps, ctx)?
        }
        PathStart::Relative => {
            let item = ctx.context_item.clone().ok_or(XqError::MissingContextItem)?;
            apply_steps(std::slice::from_ref(&item), Origin::Node, steps, ctx)?
        }
        PathStart::Expr(e) => {
            let input = eval(e, ctx)?;
            apply_steps(&input, Origin::Node, steps, ctx)?
        }
    };
    if steps
        .iter()
        .any(|s| matches!(s.axis, Axis::DescendantOrSelf | Axis::Descendant | Axis::Parent))
        || matches!(start, PathStart::RootDescendant)
    {
        document_order_dedup(&mut current);
    }
    Ok(current)
}

/// Run `steps` from `input`. A `//` is never materialized: the step after
/// it (the parser always puts one there) walks each input's descendants in
/// place, and only the nodes that step selects become references.
fn apply_steps(
    input: &[Item],
    mut origin: Origin,
    steps: &[Step],
    ctx: &mut DynamicContext,
) -> XqResult<Sequence> {
    let mut current: Option<Sequence> = None;
    let mut rest = steps.iter().peekable();
    while let Some(step) = rest.next() {
        let descend = step.axis == Axis::DescendantOrSelf
            && matches!(step.test, NodeTest::AnyNode)
            && step.predicates.is_empty();
        if descend && origin == Origin::Node && rest.peek().is_some() {
            origin = Origin::Descendants;
            continue;
        }
        current = Some(apply_step(current.as_deref().unwrap_or(input), origin, step, ctx)?);
        origin = Origin::Node;
    }
    Ok(current.unwrap_or_else(|| input.to_vec()))
}

fn expect_node(item: &Item) -> XqResult<&NodeRef> {
    item.as_node().ok_or_else(|| XqError::TypeError("path step applied to an atomic value".into()))
}

fn apply_step(
    input: &[Item],
    origin: Origin,
    step: &Step,
    ctx: &mut DynamicContext,
) -> XqResult<Sequence> {
    let mut out = Sequence::new();
    // Positional predicates count within one context node's selection.
    let mut step_from = |node: &NodeRef, element: &Element| -> XqResult<()> {
        let selected = out.len();
        select(node, element, step, &mut out);
        apply_predicates(&mut out, selected, &step.predicates, ctx)
    };
    for item in input {
        let node = expect_node(item)?;
        match origin {
            Origin::Node => step_from(node, node.element())?,
            Origin::RootDescendants | Origin::Descendants => {
                if origin == Origin::RootDescendants || node.is_element() {
                    step_from(node, node.element())?;
                }
                // The walk hands over each element it visits, so the step
                // never walks the path from the document root again.
                node.try_for_each_descendant(|n, e| step_from(n, e))?;
            }
        }
    }
    Ok(out)
}

/// Append the nodes `step`'s axis and node test select from `node`, in the
/// order its positional predicates count. `element` is the element `node`
/// designates or owns ([`NodeRef::element`]). Names are tested on the
/// borrowed element, so only selected nodes become references.
fn select(node: &NodeRef, element: &Element, step: &Step, out: &mut Sequence) {
    let mut emit = |n: NodeRef| out.push(Item::Node(n));
    match (step.axis, &step.test) {
        (Axis::Child, NodeTest::Name(pattern)) => {
            node.emit_child_elements(element, |e| name_matches(e.name(), pattern), emit)
        }
        (Axis::Child, NodeTest::Text) => node.emit_text_children(element, emit),
        (Axis::Child, NodeTest::AnyNode) => {
            node.emit_child_elements(element, |_| true, &mut emit);
            node.emit_text_children(element, emit);
        }
        (Axis::Descendant | Axis::DescendantOrSelf, test) => {
            let mut keep = |n: &NodeRef, e: &Element| match test {
                NodeTest::Name(pattern) => {
                    if name_matches(e.name(), pattern) {
                        emit(n.clone());
                    }
                }
                NodeTest::AnyNode => emit(n.clone()),
                // Text children of the visited elements.
                NodeTest::Text => n.emit_text_children(e, &mut emit),
            };
            if step.axis == Axis::DescendantOrSelf && node.is_element() {
                keep(node, element);
            }
            let _: Result<(), Infallible> = node.try_for_each_descendant(|n, e| {
                keep(n, e);
                Ok(())
            });
        }
        (Axis::SelfAxis, NodeTest::Name(pattern)) => {
            if node.is_element() && name_matches(element.name(), pattern) {
                emit(node.clone());
            }
        }
        (Axis::SelfAxis, NodeTest::AnyNode) => emit(node.clone()),
        (Axis::SelfAxis, NodeTest::Text) => {
            if matches!(node.kind(), NodeKind::Text(_)) {
                emit(node.clone());
            }
        }
        (Axis::Parent, _) => {
            if let Some(parent) = node.parent() {
                emit(parent);
            }
        }
        (Axis::Attribute, NodeTest::Name(pattern)) => {
            node.emit_attributes(element, |name| name_matches(name, pattern), emit)
        }
        (Axis::Attribute, _) => {}
    }
}

/// Keep the items of `seq[from..]` that pass each predicate in turn, with
/// XPath positional semantics (`position()`, `last()`, numeric predicates)
/// counted within that tail.
fn apply_predicates(
    seq: &mut Sequence,
    from: usize,
    predicates: &[Expr],
    ctx: &mut DynamicContext,
) -> XqResult<()> {
    for pred in predicates {
        let size = seq.len() - from;
        let mut kept = from;
        for i in from..seq.len() {
            if predicate_holds(seq[i].clone(), i - from + 1, size, pred, ctx)? {
                seq.swap(kept, i);
                kept += 1;
            }
        }
        seq.truncate(kept);
    }
    Ok(())
}

fn predicate_holds(
    item: Item,
    position: usize,
    size: usize,
    pred: &Expr,
    ctx: &mut DynamicContext,
) -> XqResult<bool> {
    let saved_item = ctx.context_item.take();
    let saved_pos = ctx.position;
    let saved_size = ctx.size;
    ctx.context_item = Some(item);
    ctx.position = position;
    ctx.size = size;
    let value = eval(pred, ctx);
    ctx.context_item = saved_item;
    ctx.position = saved_pos;
    ctx.size = saved_size;
    let value = value?;
    // Numeric singleton predicate selects by position.
    if let [Item::Number(n)] = value.as_slice() {
        return Ok(*n == position as f64);
    }
    effective_boolean(&value)
}

// ==== binary operators ===================================================

fn eval_binary(op: BinOp, lhs: &Expr, rhs: &Expr, ctx: &mut DynamicContext) -> XqResult<Sequence> {
    match op {
        BinOp::Union => {
            let mut l = eval(lhs, ctx)?;
            let r = eval(rhs, ctx)?;
            if l.iter().chain(r.iter()).any(|i| !i.is_node()) {
                return Err(XqError::TypeError("union of non-node items".into()));
            }
            l.extend(r);
            document_order_dedup(&mut l);
            Ok(l)
        }
        BinOp::Intersect | BinOp::Except => {
            let l = eval(lhs, ctx)?;
            let r = eval(rhs, ctx)?;
            if l.iter().chain(r.iter()).any(|i| !i.is_node()) {
                return Err(XqError::TypeError("set operation on non-node items".into()));
            }
            let mut right: Vec<&NodeRef> = r.iter().filter_map(Item::as_node).collect();
            right.sort_by(|a, b| a.cmp_document_order(b));
            let keep_present = matches!(op, BinOp::Intersect);
            let mut out: Sequence = l
                .into_iter()
                .filter(|i| {
                    let node = i.as_node().expect("checked node");
                    let present = right.binary_search_by(|r| r.cmp_document_order(node)).is_ok();
                    present == keep_present
                })
                .collect();
            document_order_dedup(&mut out);
            Ok(out)
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::IDiv | BinOp::Mod => {
            let l = singleton_number(eval(lhs, ctx)?, "arithmetic operand")?;
            let r = singleton_number(eval(rhs, ctx)?, "arithmetic operand")?;
            let (l, r) = match (l, r) {
                (Some(l), Some(r)) => (l, r),
                _ => return Ok(Vec::new()), // () propagates
            };
            let v = match op {
                BinOp::Add => l + r,
                BinOp::Sub => l - r,
                BinOp::Mul => l * r,
                BinOp::Div => l / r,
                BinOp::IDiv => {
                    if r == 0.0 {
                        return Err(XqError::DivisionByZero);
                    }
                    (l / r).trunc()
                }
                BinOp::Mod => {
                    if r == 0.0 {
                        return Err(XqError::DivisionByZero);
                    }
                    l % r
                }
                _ => unreachable!(),
            };
            Ok(vec![Item::Number(v)])
        }
        BinOp::GenEq | BinOp::GenNe | BinOp::GenLt | BinOp::GenLe | BinOp::GenGt | BinOp::GenGe => {
            let l = eval_operand(lhs, ctx)?;
            let r = eval_operand(rhs, ctx)?;
            for a in l.scalars() {
                for b in r.scalars() {
                    if general_compare(op, a, b) {
                        return Ok(vec![Item::Bool(true)]);
                    }
                }
            }
            Ok(vec![Item::Bool(false)])
        }
        BinOp::ValEq | BinOp::ValNe | BinOp::ValLt | BinOp::ValLe | BinOp::ValGt | BinOp::ValGe => {
            let l = eval(lhs, ctx)?;
            let r = eval(rhs, ctx)?;
            if l.is_empty() || r.is_empty() {
                return Ok(Vec::new());
            }
            if l.len() > 1 || r.len() > 1 {
                return Err(XqError::TypeError("value comparison over a sequence".into()));
            }
            Ok(vec![Item::Bool(value_compare(op, &l[0], &r[0]))])
        }
    }
}

/// One side of a general comparison: a string literal stays borrowed from
/// the query instead of becoming a one-item sequence for every tuple.
enum Operand<'q> {
    Literal(&'q str),
    Items(Sequence),
}

impl Operand<'_> {
    fn scalars(&self) -> impl Iterator<Item = Scalar<'_>> {
        let (literal, items) = match self {
            Operand::Literal(s) => (Some(Scalar::Str(s)), &[][..]),
            Operand::Items(items) => (None, items.as_slice()),
        };
        literal.into_iter().chain(items.iter().map(Scalar::Item))
    }
}

/// Evaluate a comparison operand. A string literal is charged the same
/// work, and checked against the same work and depth limits, as [`eval`]
/// would for it, so work counts and limit errors do not depend on this
/// shortcut.
fn eval_operand<'q>(expr: &'q Expr, ctx: &mut DynamicContext) -> XqResult<Operand<'q>> {
    let Expr::StrLit(s) = expr else {
        return eval(expr, ctx).map(Operand::Items);
    };
    tick(ctx, 1)?;
    if ctx.depth >= MAX_DEPTH {
        return Err(XqError::ResourceLimit("recursion depth"));
    }
    tick(ctx, 1)?;
    Ok(Operand::Literal(s))
}

/// An item, or a borrowed string that compares exactly as `Item::Str`.
#[derive(Clone, Copy)]
enum Scalar<'a> {
    Item(&'a Item),
    Str(&'a str),
}

impl<'a> Scalar<'a> {
    fn is_bool(self) -> bool {
        matches!(self, Scalar::Item(Item::Bool(_)))
    }

    fn is_number(self) -> bool {
        matches!(self, Scalar::Item(Item::Number(_)))
    }

    fn truthy(self) -> bool {
        match self {
            Scalar::Item(i) => truthy_scalar(i),
            Scalar::Str(s) => !s.is_empty(),
        }
    }

    fn number_value(self) -> f64 {
        match self {
            Scalar::Item(i) => i.number_value(),
            Scalar::Str(s) => number_of_str(s),
        }
    }

    fn str_value(self) -> Cow<'a, str> {
        match self {
            Scalar::Item(i) => i.str_value(),
            Scalar::Str(s) => Cow::Borrowed(s),
        }
    }
}

/// XPath 1.0-style general comparison: `=`/`!=` pick boolean > numeric >
/// string by operand type; the order comparisons are numeric. This matches
/// the thesis setting of untyped XML content.
fn general_compare(op: BinOp, a: Scalar<'_>, b: Scalar<'_>) -> bool {
    use BinOp::*;
    match op {
        GenEq | GenNe => {
            let eq = if a.is_bool() || b.is_bool() {
                a.truthy() == b.truthy()
            } else if a.is_number() || b.is_number() {
                a.number_value() == b.number_value()
            } else {
                a.str_value() == b.str_value()
            };
            if matches!(op, GenEq) {
                eq
            } else {
                !eq
            }
        }
        GenLt => a.number_value() < b.number_value(),
        GenLe => a.number_value() <= b.number_value(),
        GenGt => a.number_value() > b.number_value(),
        GenGe => a.number_value() >= b.number_value(),
        _ => unreachable!(),
    }
}

fn truthy_scalar(i: &Item) -> bool {
    match i {
        Item::Bool(b) => *b,
        Item::Number(n) => *n != 0.0 && !n.is_nan(),
        Item::Str(s) => !s.is_empty(),
        Item::Node(_) => true,
    }
}

/// Value comparison: numeric when both operands are numbers, string
/// otherwise (lexicographic for the order operators).
fn value_compare(op: BinOp, a: &Item, b: &Item) -> bool {
    use BinOp::*;
    if matches!(a, Item::Number(_)) && matches!(b, Item::Number(_)) {
        let (x, y) = (a.number_value(), b.number_value());
        return match op {
            ValEq => x == y,
            ValNe => x != y,
            ValLt => x < y,
            ValLe => x <= y,
            ValGt => x > y,
            ValGe => x >= y,
            _ => unreachable!(),
        };
    }
    let (x, y) = (a.str_value(), b.str_value());
    match op {
        ValEq => x == y,
        ValNe => x != y,
        ValLt => x < y,
        ValLe => x <= y,
        ValGt => x > y,
        ValGe => x >= y,
        _ => unreachable!(),
    }
}

// ==== FLWOR ==============================================================

type BindingTuple = Vec<(String, Sequence)>;

fn eval_flwor(
    clauses: &[FlworClause],
    where_: Option<&Expr>,
    order_by: &[OrderKey],
    ret: &Expr,
    ctx: &mut DynamicContext,
) -> XqResult<Sequence> {
    // Fast path: without `order by` the binding stream never needs to be
    // materialized — recurse clause by clause, pushing/popping scopes.
    // This is the registry's join hot path.
    if order_by.is_empty() {
        // Hoist loop-invariant `for` sources: a source whose free variables
        // are disjoint from everything bound by earlier clauses would
        // otherwise be re-evaluated once per outer binding, turning joins
        // into repeated full scans. (Disable with `with_hoisting(false)`
        // for the ablation benchmark.)
        let mut prepared: Vec<PreparedClause<'_>> = Vec::with_capacity(clauses.len());
        let mut bound_so_far: Vec<&str> = Vec::new();
        for clause in clauses {
            match clause {
                FlworClause::For { var, position, source } => {
                    let invariant = ctx.hoist_invariants
                        && !bound_so_far.is_empty()
                        && source.free_vars().iter().all(|v| !bound_so_far.contains(&v.as_str()));
                    let src = if invariant {
                        PreparedSource::Materialized(eval(source, ctx)?)
                    } else {
                        PreparedSource::Lazy(source)
                    };
                    prepared.push(PreparedClause::For { var, position: position.as_deref(), src });
                    bound_so_far.push(var);
                    if let Some(p) = position {
                        bound_so_far.push(p);
                    }
                }
                FlworClause::Let { var, value } => {
                    prepared.push(PreparedClause::Let { var, value });
                    bound_so_far.push(var);
                }
            }
        }
        let mut out = Sequence::new();
        eval_flwor_streaming(&prepared, where_, ret, ctx, &mut out)?;
        return Ok(out);
    }
    // Expand clauses into the stream of binding tuples.
    let mut tuples: Vec<BindingTuple> = vec![Vec::new()];
    for clause in clauses {
        let mut next: Vec<BindingTuple> = Vec::new();
        for tuple in tuples {
            with_bindings(ctx, &tuple, |ctx| {
                match clause {
                    FlworClause::For { var, position, source } => {
                        let items = eval(source, ctx)?;
                        for (i, item) in items.into_iter().enumerate() {
                            let mut t = tuple.clone();
                            t.push((var.clone(), vec![item]));
                            if let Some(pvar) = position {
                                t.push((pvar.clone(), vec![Item::Number((i + 1) as f64)]));
                            }
                            next.push(t);
                            if next.len() > 10_000_000 {
                                return Err(XqError::ResourceLimit("FLWOR binding tuples"));
                            }
                        }
                    }
                    FlworClause::Let { var, value } => {
                        let v = eval(value, ctx)?;
                        let mut t = tuple.clone();
                        t.push((var.clone(), v));
                        next.push(t);
                    }
                }
                Ok(())
            })?;
        }
        tuples = next;
    }
    // where
    if let Some(w) = where_ {
        let mut kept = Vec::with_capacity(tuples.len());
        for tuple in tuples {
            let keep = with_bindings(ctx, &tuple, |ctx| effective_boolean(&eval(w, ctx)?))?;
            if keep {
                kept.push(tuple);
            }
        }
        tuples = kept;
    }
    // order by
    if !order_by.is_empty() {
        let mut keyed: Vec<(Vec<OrderValue>, BindingTuple)> = Vec::with_capacity(tuples.len());
        for tuple in tuples {
            let keys = with_bindings(ctx, &tuple, |ctx| {
                order_by
                    .iter()
                    .map(|k| {
                        let v = eval(&k.expr, ctx)?;
                        Ok(OrderValue::from_sequence(&v, k.descending))
                    })
                    .collect::<XqResult<Vec<_>>>()
            })?;
            keyed.push((keys, tuple));
        }
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        tuples = keyed.into_iter().map(|(_, t)| t).collect();
    }
    // return
    let mut out = Sequence::new();
    for tuple in tuples {
        let v = with_bindings(ctx, &tuple, |ctx| eval(ret, ctx))?;
        out.extend(v);
    }
    Ok(out)
}

enum PreparedSource<'a> {
    /// Evaluated once up front (loop-invariant).
    Materialized(Sequence),
    /// Re-evaluated per enclosing binding (depends on outer variables).
    Lazy(&'a Expr),
}

enum PreparedClause<'a> {
    For { var: &'a str, position: Option<&'a str>, src: PreparedSource<'a> },
    Let { var: &'a str, value: &'a Expr },
}

fn eval_flwor_streaming(
    clauses: &[PreparedClause<'_>],
    where_: Option<&Expr>,
    ret: &Expr,
    ctx: &mut DynamicContext,
    out: &mut Sequence,
) -> XqResult<()> {
    let Some((clause, rest)) = clauses.split_first() else {
        let keep = match where_ {
            Some(w) => effective_boolean(&eval(w, ctx)?)?,
            None => true,
        };
        if keep {
            out.extend(eval(ret, ctx)?);
        }
        return Ok(());
    };
    match clause {
        PreparedClause::For { var, position, src } => {
            let items: Sequence = match src {
                PreparedSource::Materialized(seq) => seq.clone(),
                PreparedSource::Lazy(e) => eval(e, ctx)?,
            };
            for (i, item) in items.into_iter().enumerate() {
                ctx.push_scope(var, vec![item]);
                if let Some(pvar) = position {
                    ctx.push_scope(pvar, vec![Item::Number((i + 1) as f64)]);
                }
                let r = eval_flwor_streaming(rest, where_, ret, ctx, out);
                if position.is_some() {
                    ctx.pop_scope();
                }
                ctx.pop_scope();
                r?;
            }
        }
        PreparedClause::Let { var, value } => {
            let v = eval(value, ctx)?;
            ctx.push_scope(var, v);
            let r = eval_flwor_streaming(rest, where_, ret, ctx, out);
            ctx.pop_scope();
            r?;
        }
    }
    Ok(())
}

fn with_bindings<T>(
    ctx: &mut DynamicContext,
    tuple: &BindingTuple,
    f: impl FnOnce(&mut DynamicContext) -> XqResult<T>,
) -> XqResult<T> {
    for (name, value) in tuple {
        ctx.push_scope(name, value.clone());
    }
    let out = f(ctx);
    for _ in tuple {
        ctx.pop_scope();
    }
    out
}

/// A sort key value: numeric when the key atomizes to a number, string
/// otherwise; empty sequences sort first (empty-least, as in XQuery's
/// default `empty least`).
#[derive(Debug, PartialEq)]
enum OrderValue {
    Empty { descending: bool },
    Num { value: f64, descending: bool },
    Str { value: String, descending: bool },
}

impl OrderValue {
    fn from_sequence(seq: &[Item], descending: bool) -> OrderValue {
        match seq.first() {
            None => OrderValue::Empty { descending },
            Some(item) => {
                let s = item.string_value();
                match s.trim().parse::<f64>() {
                    Ok(n) if !matches!(item, Item::Str(_)) || !s.trim().is_empty() => {
                        OrderValue::Num { value: n, descending }
                    }
                    _ => OrderValue::Str { value: s, descending },
                }
            }
        }
    }

    fn rank(&self) -> u8 {
        match self {
            OrderValue::Empty { .. } => 0,
            OrderValue::Num { .. } => 1,
            OrderValue::Str { .. } => 2,
        }
    }
}

impl Eq for OrderValue {}

impl PartialOrd for OrderValue {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderValue {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        let base = match (self, other) {
            (OrderValue::Num { value: a, .. }, OrderValue::Num { value: b, .. }) => {
                a.partial_cmp(b).unwrap_or(Ordering::Equal)
            }
            (OrderValue::Str { value: a, .. }, OrderValue::Str { value: b, .. }) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        };
        let descending = match self {
            OrderValue::Empty { descending }
            | OrderValue::Num { descending, .. }
            | OrderValue::Str { descending, .. } => *descending,
        };
        if descending {
            base.reverse()
        } else {
            base
        }
    }
}

// ==== constructors =======================================================

fn build_direct(d: &DirectConstructor, ctx: &mut DynamicContext) -> XqResult<Element> {
    let mut element = Element::new(d.name.as_str());
    for (name, parts) in &d.attributes {
        let mut value = String::new();
        for part in parts {
            match part {
                AttrPart::Text(t) => value.push_str(t),
                AttrPart::Interpolated(e) => {
                    let v = eval(e, ctx)?;
                    value.push_str(&atomize_joined(&v));
                }
            }
        }
        element.set_attr(name.as_str(), value);
    }
    for content in &d.content {
        match content {
            ConstructorContent::Text(t) => element.push(XmlNode::Text(t.as_str().into())),
            ConstructorContent::Element(inner) => {
                let child = build_direct(inner, ctx)?;
                element.push(child);
            }
            ConstructorContent::Interpolated(e) => {
                let v = eval(e, ctx)?;
                append_content(&mut element, &v)?;
            }
        }
    }
    Ok(element)
}

/// Append a sequence to constructed element content per XQuery rules:
/// node items are deep-copied, adjacent atomic items are joined with single
/// spaces into one text node, attribute nodes become attributes.
fn append_content(element: &mut Element, seq: &[Item]) -> XqResult<()> {
    let mut atom_buf: Vec<String> = Vec::new();
    let flush = |element: &mut Element, buf: &mut Vec<String>| {
        if !buf.is_empty() {
            element.push(XmlNode::Text(buf.join(" ").into()));
            buf.clear();
        }
    };
    for item in seq {
        match item {
            Item::Node(n) => match n.kind() {
                NodeKind::Element | NodeKind::Document => {
                    flush(element, &mut atom_buf);
                    element.push(n.element().clone());
                }
                NodeKind::Attribute(_) => {
                    element.set_attr(n.name_str(), n.str_value().as_ref());
                }
                NodeKind::Text(_) => {
                    flush(element, &mut atom_buf);
                    element.push(XmlNode::Text(n.str_value().as_ref().into()));
                }
            },
            atomic => atom_buf.push(atomic.string_value()),
        }
    }
    flush(element, &mut atom_buf);
    Ok(())
}

/// Atomize a sequence and join with single spaces (attribute-value and
/// computed-attribute semantics).
pub(crate) fn atomize_joined(seq: &[Item]) -> String {
    let mut out = String::new();
    for (i, item) in seq.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(&item.str_value());
    }
    out
}

pub(crate) fn singleton_number(seq: Sequence, what: &str) -> XqResult<Option<f64>> {
    match seq.len() {
        0 => Ok(None),
        1 => Ok(Some(seq[0].number_value())),
        _ => Err(XqError::TypeError(format!("{what}: expected a singleton"))),
    }
}

pub(crate) fn singleton_string(seq: Sequence, what: &str) -> XqResult<Option<String>> {
    match seq.len() {
        0 => Ok(None),
        1 => Ok(Some(seq[0].string_value())),
        _ => Err(XqError::TypeError(format!("{what}: expected a singleton"))),
    }
}
