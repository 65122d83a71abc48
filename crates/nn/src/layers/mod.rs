//! Concrete layer implementations.

mod activation;
mod batchnorm;
mod composite;
mod conv;
mod dense;
mod dropout;
mod flatten;
mod parallel;
mod pool;

pub use activation::Relu;
pub use batchnorm::BatchNorm2d;
pub use composite::{DenseBlock, Residual};
pub use conv::Conv2d;
pub use dense::Dense;
pub use dropout::Dropout;
pub use flatten::Flatten;
pub use parallel::Parallel;
pub use pool::{AvgPoolGlobal, MaxPool2d};

/// Test helper: one layer's forward pass on a tensor, through a scratch
/// workspace.
#[cfg(test)]
pub(crate) fn forward(
    layer: &mut dyn crate::layer::Layer,
    input: &pgmr_tensor::Tensor,
    train: bool,
) -> pgmr_tensor::Tensor {
    let mut ws = crate::workspace::Workspace::new();
    let mut buf = ws.acquire(input.shape().dims());
    buf.data_mut().copy_from_slice(input.data());
    layer.forward_into(buf, &mut ws, train, false).0.to_tensor()
}
