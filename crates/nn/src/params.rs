//! Parameter storage and the forward-pass context.
//!
//! Model architectures in this crate do not own their weights: they hold
//! [`ParamId`]s into a [`Params`] store. This split is what makes the
//! paper's fine-tuning step natural — a classifier clones the trained
//! seq2seq parameter store, appends its head parameters, and keeps using
//! the encoder's original ids (Section 4.1.2).
//!
//! During a forward pass a [`Binding`] lazily registers each referenced
//! parameter as a graph leaf exactly once per graph. Leaves share the
//! store's weight tensors (no copy per graph); the optimizer writes
//! through copy-on-write once every graph of the step has been dropped.
//!
//! Training splits each example into [`forward_train`], which builds the
//! graph and is the only consumer of the dropout RNG, and
//! [`Tape::backward`], which may run on another thread and yields the
//! example's [`LeafGrads`] for [`Params::add_grads`].

use qrec_tensor::{Graph, NodeId, Tensor};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Handle to one parameter tensor in a [`Params`] store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

/// A named collection of parameter tensors with gradient buffers.
///
/// A store may additionally carry an int8 quantization sidecar
/// ([`crate::quant::QuantParams`], built by [`Params::quantize`]):
/// inference-time layers consult it to run their projections through the
/// int8 GEMM. The sidecar is runtime-only — it serialises as `null` and
/// is rebuilt (from f32 weights or from the zoo's explicit int8
/// sections) rather than round-tripped.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Params {
    data: Vec<Arc<Tensor>>,
    grad: Vec<Tensor>,
    names: Vec<String>,
    #[serde(default)]
    quant: Option<crate::quant::QuantParams>,
}

impl Params {
    /// An empty store.
    pub fn new() -> Self {
        Params::default()
    }

    /// Register a parameter tensor under a diagnostic name.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let id = ParamId(self.data.len());
        self.grad.push(Tensor::zeros(value.rows(), value.cols()));
        self.data.push(Arc::new(value));
        self.names.push(name.into());
        id
    }

    /// Number of parameters tensors.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Total number of scalar parameters (the paper's Table 3 `#params`).
    pub fn scalar_count(&self) -> usize {
        self.data.iter().map(|t| t.len()).sum()
    }

    /// The value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.data[id.0]
    }

    /// Mutable value (used by optimizers and tests). Copies the tensor
    /// first if a live graph or a cloned store still shares it.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        Arc::make_mut(&mut self.data[id.0])
    }

    /// The accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grad[id.0]
    }

    /// Diagnostic name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// A store sharing this one's weight tensors (no copy) without
    /// gradient buffers: a read-only view for forward passes on other
    /// threads and for weight snapshots. Gradient reads on it panic.
    pub fn share_weights(&self) -> Params {
        Params {
            data: self.data.clone(),
            grad: Vec::new(),
            names: self.names.clone(),
            quant: self.quant.clone(),
        }
    }

    /// Take the weights of `snapshot`, a [`Params::share_weights`] view
    /// of this store, keeping this store's gradient buffers.
    pub fn load_weights(&mut self, snapshot: Params) {
        self.data = snapshot.data;
        self.quant = snapshot.quant;
    }

    /// Zero every gradient buffer (start of an optimizer step).
    pub fn zero_grad(&mut self) {
        for g in &mut self.grad {
            g.fill(0.0);
        }
    }

    /// Add one example's gradients into the store's buffers, in
    /// parameter-id order.
    pub fn add_grads(&mut self, grads: &LeafGrads) {
        for (acc, g) in self.grad.iter_mut().zip(&grads.0) {
            if let Some(g) = g {
                acc.add_assign(g);
            }
        }
    }

    /// Iterate `(value, grad)` pairs (optimizer internals). Values are
    /// written copy-on-write, so a store cloned earlier keeps its
    /// weights.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (&mut Tensor, &Tensor)> {
        self.data
            .iter_mut()
            .map(Arc::make_mut)
            .zip(self.grad.iter())
    }

    /// Iterate `(name, value)` pairs in id order — the serialisation
    /// surface for model persistence. Ids are positional, so a store
    /// rebuilt by feeding this iterator's output to
    /// [`Params::from_named_tensors`] preserves every [`ParamId`].
    pub fn named_tensors(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.data.iter().map(|t| &**t))
    }

    /// Rebuild a store from `(name, value)` pairs in id order (the
    /// inverse of [`Params::named_tensors`]), with freshly zeroed
    /// gradient buffers.
    pub fn from_named_tensors(tensors: Vec<(String, Tensor)>) -> Params {
        let mut params = Params::new();
        for (name, value) in tensors {
            params.add(name, value);
        }
        params
    }

    /// Build (or rebuild) the int8 quantization sidecar from the current
    /// f32 weights: every `*.w` matmul weight is calibrated per-tensor,
    /// quantized, and packed for the int8 GEMM. Inference-time layers
    /// take the quantized path whenever the sidecar is present; training
    /// passes and stores without a sidecar are bitwise unaffected.
    ///
    /// Deterministic: the same weights always produce the same sidecar.
    pub fn quantize(&mut self) {
        self.quant = Some(crate::quant::QuantParams::build(self.named_tensors()));
    }

    /// Drop the quantization sidecar, restoring the pure-f32 path.
    pub fn dequantize(&mut self) {
        self.quant = None;
    }

    /// The quantization sidecar, if [`Params::quantize`] built one.
    pub fn quant(&self) -> Option<&crate::quant::QuantParams> {
        self.quant.as_ref()
    }

    /// True when an int8 sidecar is active.
    pub fn is_quantized(&self) -> bool {
        self.quant.is_some()
    }

    /// Install an externally built sidecar (the zoo's int8-section load
    /// path). The sidecar must have been built for this store's id space.
    pub fn set_quant(&mut self, quant: crate::quant::QuantParams) {
        self.quant = Some(quant);
    }

    /// Global L2 norm of all gradients (for clipping).
    pub fn grad_norm(&self) -> f32 {
        self.grad.iter().map(Tensor::sq_norm).sum::<f32>().sqrt()
    }

    /// Scale all gradients by `c` (for clipping).
    pub fn scale_grads(&mut self, c: f32) {
        for g in &mut self.grad {
            *g = g.scale(c);
        }
    }
}

/// Per-graph cache mapping parameters to their graph leaf, so each
/// parameter is registered once per forward graph.
#[derive(Debug)]
pub struct Binding {
    nodes: Vec<Option<NodeId>>,
}

impl Binding {
    /// A binding for a store with `len` parameters.
    pub fn new(len: usize) -> Self {
        Binding {
            nodes: vec![None; len],
        }
    }
}

/// Everything a layer needs during one forward pass.
pub struct Fwd<'a> {
    /// The autodiff tape being built.
    pub graph: &'a mut Graph,
    /// The parameter store (read-only during forward).
    pub params: &'a Params,
    /// Parameter-to-leaf cache for this graph.
    pub bind: &'a mut Binding,
    /// RNG for dropout masks.
    pub rng: &'a mut StdRng,
    /// Training mode (enables dropout).
    pub training: bool,
}

impl Fwd<'_> {
    /// The graph leaf for a parameter, registering it on first use. The
    /// leaf shares the store's tensor rather than copying it.
    pub fn param(&mut self, id: ParamId) -> NodeId {
        if let Some(node) = self.bind.nodes[id.0] {
            return node;
        }
        let node = self.graph.input_shared(Arc::clone(&self.params.data[id.0]));
        self.bind.nodes[id.0] = Some(node);
        node
    }

    /// Register a non-parameter constant (masks, positional encodings).
    pub fn constant(&mut self, t: Tensor) -> NodeId {
        self.graph.input(t)
    }

    /// Register a shared constant without copying its data. The decoder
    /// feeds the cached encoder output into every step graph through
    /// this, so beam search never clones the encoder state per step.
    pub fn constant_shared(&mut self, t: std::sync::Arc<Tensor>) -> NodeId {
        self.graph.input_shared(t)
    }
}

/// One example's parameter gradients, indexed by [`ParamId`] (`None`
/// where no gradient reached the parameter).
#[derive(Debug)]
pub struct LeafGrads(Vec<Option<Tensor>>);

/// A training forward pass awaiting its backward pass. It owns its graph
/// and shares the weights, so it can be sent to another thread.
pub struct Tape {
    graph: Graph,
    bind: Binding,
    loss: NodeId,
}

impl Tape {
    /// Backpropagate from the loss and take the parameter gradients;
    /// the graph is consumed.
    pub fn backward(self) -> LeafGrads {
        LeafGrads(self.graph.into_grads(self.loss, self.bind.nodes))
    }
}

/// Run a training-mode forward pass (dropout on): build a graph with `f`
/// and return the scalar loss `f` produced with the tape to
/// backpropagate it.
pub fn forward_train(
    params: &Params,
    rng: &mut StdRng,
    f: impl FnOnce(&mut Fwd<'_>) -> NodeId,
) -> (f32, Tape) {
    let mut graph = Graph::new();
    let mut bind = Binding::new(params.len());
    let loss = f(&mut Fwd {
        graph: &mut graph,
        params,
        bind: &mut bind,
        rng,
        training: true,
    });
    let loss_val = graph.value(loss).item();
    (loss_val, Tape { graph, bind, loss })
}

/// Run one forward-backward pass: build a graph with `f`, backprop from
/// the scalar loss `f` returns, and accumulate parameter gradients.
/// Returns the loss value.
pub fn forward_backward(
    params: &mut Params,
    rng: &mut StdRng,
    f: impl FnOnce(&mut Fwd<'_>) -> NodeId,
) -> f32 {
    let (loss, tape) = forward_train(params, rng, f);
    params.add_grads(&tape.backward());
    loss
}

/// Run a forward pass without gradients (evaluation / inference).
/// Returns whatever `f` computes from the finished graph.
pub fn forward_eval<T>(params: &Params, rng: &mut StdRng, f: impl FnOnce(&mut Fwd<'_>) -> T) -> T {
    let mut graph = Graph::new();
    let mut bind = Binding::new(params.len());
    let mut fwd = Fwd {
        graph: &mut graph,
        params,
        bind: &mut bind,
        rng,
        training: false,
    };
    f(&mut fwd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn params_add_and_count() {
        let mut p = Params::new();
        let a = p.add("w", Tensor::zeros(2, 3));
        let b = p.add("b", Tensor::zeros(1, 3));
        assert_eq!(p.len(), 2);
        assert_eq!(p.scalar_count(), 9);
        assert_eq!(p.name(a), "w");
        assert_eq!(p.value(b).shape(), (1, 3));
    }

    #[test]
    fn named_tensor_round_trip_preserves_ids_and_values() {
        let mut p = Params::new();
        let a = p.add("w", Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = p.add("b", Tensor::from_vec(1, 2, vec![-0.5, 0.25]));
        let rebuilt = Params::from_named_tensors(
            p.named_tensors()
                .map(|(n, t)| (n.to_string(), t.clone()))
                .collect(),
        );
        assert_eq!(rebuilt.len(), p.len());
        assert_eq!(rebuilt.name(a), "w");
        assert_eq!(rebuilt.value(a).data(), p.value(a).data());
        assert_eq!(rebuilt.value(b).data(), p.value(b).data());
        assert_eq!(rebuilt.grad(a).data(), vec![0.0; 4], "grads start zeroed");
    }

    #[test]
    fn serialized_form_is_the_plain_tensor_list() {
        let mut p = Params::new();
        p.add("w", Tensor::from_vec(1, 2, vec![1.5, -2.0]));
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(
            json,
            r#"{"data":[{"rows":1,"cols":2,"data":[1.5,-2.0]}],"grad":[{"rows":1,"cols":2,"data":[0.0,0.0]}],"names":["w"],"quant":null}"#
        );
        let back: Params = serde_json::from_str(&json).unwrap();
        assert_eq!(back.value(ParamId(0)).data(), &[1.5, -2.0]);
    }

    #[test]
    fn leaves_share_weights_and_snapshots_copy_on_write() {
        let mut p = Params::new();
        let w = p.add("w", Tensor::scalar(2.0));
        let mut rng = StdRng::seed_from_u64(0);
        let (_, tape) = forward_train(&p, &mut rng, |fwd| {
            let wn = fwd.param(w);
            let node = fwd.graph.mul(wn, wn);
            assert!(Arc::ptr_eq(&fwd.graph.value_shared(wn), &p.data[0]));
            node
        });
        p.add_grads(&tape.backward());
        assert_eq!(p.grad(w).item(), 4.0);

        let snapshot = p.share_weights();
        *p.value_mut(w) = Tensor::scalar(3.0);
        assert_eq!(snapshot.value(w).item(), 2.0, "snapshot kept its weights");
        p.load_weights(snapshot);
        assert_eq!(p.value(w).item(), 2.0);
        assert_eq!(p.grad(w).item(), 4.0, "gradients survive a weight load");
    }

    #[test]
    fn binding_registers_param_once() {
        let mut p = Params::new();
        let w = p.add("w", Tensor::scalar(2.0));
        let mut g = Graph::new();
        let mut bind = Binding::new(p.len());
        let mut rng = StdRng::seed_from_u64(0);
        let mut fwd = Fwd {
            graph: &mut g,
            params: &p,
            bind: &mut bind,
            rng: &mut rng,
            training: true,
        };
        let n1 = fwd.param(w);
        let n2 = fwd.param(w);
        assert_eq!(n1, n2);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn forward_backward_accumulates_grads() {
        let mut p = Params::new();
        let w = p.add("w", Tensor::scalar(3.0));
        let mut rng = StdRng::seed_from_u64(0);
        // loss = w * w  →  dloss/dw = 2w = 6
        let loss = forward_backward(&mut p, &mut rng, |fwd| {
            let wn = fwd.param(w);
            fwd.graph.mul(wn, wn)
        });
        assert_eq!(loss, 9.0);
        assert_eq!(p.grad(w).item(), 6.0);
        // A second pass accumulates.
        forward_backward(&mut p, &mut rng, |fwd| {
            let wn = fwd.param(w);
            fwd.graph.mul(wn, wn)
        });
        assert_eq!(p.grad(w).item(), 12.0);
        p.zero_grad();
        assert_eq!(p.grad(w).item(), 0.0);
    }

    #[test]
    fn grad_norm_and_scaling() {
        let mut p = Params::new();
        let w = p.add("w", Tensor::scalar(1.0));
        let mut rng = StdRng::seed_from_u64(0);
        forward_backward(&mut p, &mut rng, |fwd| {
            let wn = fwd.param(w);
            fwd.graph.scale(wn, 3.0)
        });
        assert_eq!(p.grad_norm(), 3.0);
        p.scale_grads(0.5);
        assert_eq!(p.grad(w).item(), 1.5);
    }

    #[test]
    fn shared_param_across_batch_sums_gradients() {
        // Two "examples" in one graph: loss = w*x1 + w*x2.
        let mut p = Params::new();
        let w = p.add("w", Tensor::scalar(1.0));
        let mut rng = StdRng::seed_from_u64(0);
        forward_backward(&mut p, &mut rng, |fwd| {
            let wn = fwd.param(w);
            let a = fwd.graph.scale(wn, 2.0);
            let b = fwd.graph.scale(wn, 5.0);
            fwd.graph.add(a, b)
        });
        assert_eq!(p.grad(w).item(), 7.0);
    }
}
