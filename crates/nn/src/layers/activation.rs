use super::{Layer, Workspace};
use crate::pool::zip_map;

/// Rectified linear unit, `max(0, x)`. A large tensor is split over the
/// kernel pool in fixed chunks, elementwise, so the bits never depend on
/// the thread count.
#[derive(Debug, Clone, Default)]
pub struct Relu;

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Relu
    }
}

impl Layer for Relu {
    fn forward(&mut self, ws: &mut Workspace, _train: bool) {
        let io = ws.push(ws.output_shape());
        zip_map(io.y, [io.x], |y, [x]| {
            for (y, &x) in y.iter_mut().zip(x) {
                *y = x.max(0.0);
            }
        });
    }

    fn backward(&mut self, ws: &mut Workspace, input_grad: bool) {
        ws.backward(input_grad, 0, |b| {
            if let Some(gx) = b.gx {
                zip_map(gx, [b.go, b.x], |gx, [go, x]| {
                    for ((g, &go), &x) in gx.iter_mut().zip(go).zip(x) {
                        *g = if x <= 0.0 { 0.0 } else { go };
                    }
                });
            }
        });
    }
}

/// Hyperbolic tangent activation, used by the paper for the loop-direction
/// head (`dir > 0` ⇒ clockwise). Split over the kernel pool as [`Relu`]
/// is.
#[derive(Debug, Clone, Default)]
pub struct Tanh;

impl Tanh {
    /// Creates a tanh activation.
    pub fn new() -> Self {
        Tanh
    }
}

impl Layer for Tanh {
    fn forward(&mut self, ws: &mut Workspace, _train: bool) {
        let io = ws.push(ws.output_shape());
        zip_map(io.y, [io.x], |y, [x]| {
            for (y, &x) in y.iter_mut().zip(x) {
                *y = x.tanh();
            }
        });
    }

    fn backward(&mut self, ws: &mut Workspace, input_grad: bool) {
        ws.backward(input_grad, 0, |b| {
            if let Some(gx) = b.gx {
                // d tanh = 1 - tanh².
                zip_map(gx, [b.go, b.y], |gx, [go, y]| {
                    for ((g, &go), &y) in gx.iter_mut().zip(go).zip(y) {
                        *g = go * (1.0 - y * y);
                    }
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use crate::Tensor;

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap();
        let y = gradcheck::forward(&mut Relu::new(), &mut Workspace::default(), &x);
        assert_eq!(y, [0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_gradient_masks() {
        let x = Tensor::from_vec(vec![-1.0, 3.0], &[2]).unwrap();
        let g = gradcheck::input_grad(&mut Relu::new(), &x, &[5.0, 5.0]);
        assert_eq!(g, [0.0, 5.0]);
    }

    #[test]
    fn tanh_range_and_sign() {
        let x = Tensor::from_vec(vec![-10.0, 0.0, 10.0], &[3]).unwrap();
        let y = gradcheck::forward(&mut Tanh::new(), &mut Workspace::default(), &x);
        assert!(y[0] < -0.99);
        assert_eq!(y[1], 0.0);
        assert!(y[2] > 0.99);
    }

    #[test]
    fn gradcheck_tanh() {
        let mut t = Tanh::new();
        let x = Tensor::from_vec(vec![-0.5, 0.1, 0.9, 2.0], &[4]).unwrap();
        gradcheck::check_input_grad(&mut t, &x, 1e-2);
    }
}
