//! Data items on run edges (paper §6).
//!
//! Each run edge `e = (u, v)` carries a set `Data(e)` of data items produced
//! by `u` and consumed by `v`. A data item is created by a *unique* module
//! execution (its `Output`) but may be read by several (`Inputs`) — e.g.
//! `x1` in Figure 11 flows on both `(a1, b1)` and `(a1, b3)`.

use wfp_model::{Run, RunEdgeId, RunVertexId};

/// Identifier of a data item within a [`RunData`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataItemId(pub u32);

impl DataItemId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for DataItemId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl std::fmt::Debug for DataItemId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// One data item: its name, producer and consumers.
#[derive(Clone, Debug)]
pub struct DataItem {
    /// Human-readable name (unique within the run's data).
    pub name: String,
    /// `Output(x)`: the unique module execution that wrote the item.
    pub producer: RunVertexId,
    /// `Inputs(x)`: the module executions that read the item (deduplicated,
    /// sorted).
    pub consumers: Vec<RunVertexId>,
}

/// Violations of the data model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// An item was declared with no carrying edges.
    NoEdges(String),
    /// An item's carrying edges have different tails — it would have two
    /// producers.
    MultipleProducers(String),
    /// Duplicate item name.
    DuplicateName(String),
    /// An edge id is out of range for the run.
    BadEdge(RunEdgeId),
    /// A vertex reference is out of range (live registration: the vertex
    /// has not executed yet).
    BadVertex(RunVertexId),
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::NoEdges(n) => write!(f, "data item {n:?} flows on no edge"),
            DataError::MultipleProducers(n) => {
                write!(f, "data item {n:?} would be produced by two modules")
            }
            DataError::DuplicateName(n) => write!(f, "duplicate data item name {n:?}"),
            DataError::BadEdge(e) => write!(f, "edge {e} out of range"),
            DataError::BadVertex(v) => {
                write!(f, "vertex {v} out of range (not executed yet)")
            }
        }
    }
}

impl std::error::Error for DataError {}

/// The data annotation of a run: `Data(e)` per edge plus the item registry.
pub struct RunData {
    items: Vec<DataItem>,
    per_edge: Vec<Vec<DataItemId>>,
}

impl RunData {
    /// Number of data items.
    pub fn item_count(&self) -> usize {
        self.items.len()
    }

    /// The item with id `x`.
    pub fn item(&self, x: DataItemId) -> &DataItem {
        &self.items[x.index()]
    }

    /// All items with their ids.
    pub fn items(&self) -> impl Iterator<Item = (DataItemId, &DataItem)> {
        self.items
            .iter()
            .enumerate()
            .map(|(i, it)| (DataItemId(i as u32), it))
    }

    /// `Data(e)`: the items flowing over edge `e`.
    pub fn data_on_edge(&self, e: RunEdgeId) -> &[DataItemId] {
        &self.per_edge[e.index()]
    }

    /// Finds an item by name.
    pub fn item_by_name(&self, name: &str) -> Option<DataItemId> {
        self.items
            .iter()
            .position(|it| it.name == name)
            .map(|i| DataItemId(i as u32))
    }

    /// Total number of (edge, item) incidences `Σ_e |Data(e)|` — the input
    /// size of data labeling (§6).
    pub fn incidence_count(&self) -> usize {
        self.per_edge.iter().map(|v| v.len()).sum()
    }

    /// The maximum in-degree `k = max_x |Inputs(x)|` governing the data
    /// label length factor `k + 1` (§6).
    pub fn max_inputs(&self) -> usize {
        self.items
            .iter()
            .map(|it| it.consumers.len())
            .max()
            .unwrap_or(0)
    }
}

/// Builder for [`RunData`].
pub struct RunDataBuilder<'a> {
    run: &'a Run,
    items: Vec<DataItem>,
    per_edge: Vec<Vec<DataItemId>>,
    names: std::collections::HashSet<String>,
}

impl<'a> RunDataBuilder<'a> {
    /// Creates an empty annotation for `run`.
    pub fn new(run: &'a Run) -> Self {
        RunDataBuilder {
            run,
            items: Vec::new(),
            per_edge: vec![Vec::new(); run.edge_count()],
            names: std::collections::HashSet::new(),
        }
    }

    /// Declares a data item flowing over `edges` (all must share a tail).
    pub fn add_item(
        &mut self,
        name: impl Into<String>,
        edges: &[RunEdgeId],
    ) -> Result<DataItemId, DataError> {
        let name = name.into();
        if edges.is_empty() {
            return Err(DataError::NoEdges(name));
        }
        if !self.names.insert(name.clone()) {
            return Err(DataError::DuplicateName(name));
        }
        for &e in edges {
            if e.index() >= self.run.edge_count() {
                return Err(DataError::BadEdge(e));
            }
        }
        let (producer, _) = self.run.edge(edges[0]);
        let mut consumers: Vec<RunVertexId> = Vec::with_capacity(edges.len());
        for &e in edges {
            let (tail, head) = self.run.edge(e);
            if tail != producer {
                return Err(DataError::MultipleProducers(name));
            }
            consumers.push(head);
        }
        consumers.sort_unstable();
        consumers.dedup();
        let id = DataItemId(self.items.len() as u32);
        for &e in edges {
            self.per_edge[e.index()].push(id);
        }
        self.items.push(DataItem {
            name,
            producer,
            consumers,
        });
        Ok(id)
    }

    /// Finishes the annotation.
    pub fn finish(self) -> RunData {
        RunData {
            items: self.items,
            per_edge: self.per_edge,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfp_model::fixtures::{paper_run, paper_spec, paper_vertex};

    #[test]
    fn figure_11_items() {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let a1 = paper_vertex(&spec, &run, "a1");
        let b1 = paper_vertex(&spec, &run, "b1");
        let b3 = paper_vertex(&spec, &run, "b3");
        let e_a1b1 = run.edge_ids().find(|&e| run.edge(e) == (a1, b1)).unwrap();
        let e_a1b3 = run.edge_ids().find(|&e| run.edge(e) == (a1, b3)).unwrap();
        let mut b = RunDataBuilder::new(&run);
        let x1 = b.add_item("x1", &[e_a1b1, e_a1b3]).unwrap();
        let data = b.finish();
        let item = data.item(x1);
        assert_eq!(item.producer, a1);
        assert_eq!(item.consumers, vec![b1, b3]);
        assert_eq!(data.data_on_edge(e_a1b1), &[x1]);
        assert_eq!(data.item_by_name("x1"), Some(x1));
        assert_eq!(data.item_by_name("x9"), None);
        assert_eq!(data.incidence_count(), 2);
        assert_eq!(data.max_inputs(), 2);
    }

    #[test]
    fn multiple_producers_rejected() {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let e0 = RunEdgeId(0);
        let other = run
            .edge_ids()
            .find(|&e| run.edge(e).0 != run.edge(e0).0)
            .unwrap();
        let mut b = RunDataBuilder::new(&run);
        assert!(matches!(
            b.add_item("bad", &[e0, other]),
            Err(DataError::MultipleProducers(_))
        ));
    }

    #[test]
    fn duplicate_names_and_empty_edges_rejected() {
        let spec = paper_spec();
        let run = paper_run(&spec);
        let mut b = RunDataBuilder::new(&run);
        b.add_item("x", &[RunEdgeId(0)]).unwrap();
        assert!(matches!(
            b.add_item("x", &[RunEdgeId(1)]),
            Err(DataError::DuplicateName(_))
        ));
        assert!(matches!(b.add_item("y", &[]), Err(DataError::NoEdges(_))));
        assert!(matches!(
            b.add_item("z", &[RunEdgeId(9999)]),
            Err(DataError::BadEdge(_))
        ));
    }

    use wfp_model::RunEdgeId;
}
