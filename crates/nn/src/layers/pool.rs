use super::{Layer, Workspace};

/// 2x2 max pooling with stride 2 (the paper's `pool, /2`).
///
/// Odd spatial dimensions are handled by letting the final window clamp to
/// the edge (ceiling division), so no input element is dropped. The
/// backward finds each window's winner again from the forward's input.
#[derive(Debug, Clone, Default)]
pub struct MaxPool2d;

impl MaxPool2d {
    /// Creates a 2x2/stride-2 max-pooling layer.
    pub fn new() -> Self {
        MaxPool2d
    }

    /// Output spatial size for an input of `side` (ceiling halving).
    pub fn out_side(side: usize) -> usize {
        side.div_ceil(2)
    }
}

/// Calls `f(output index, input index of the window's maximum)` for every
/// output of a 2x2/stride-2 max pool over `x`, `[n, c, h, w]`, in output
/// order. The first maximum of a window wins.
fn for_each_winner(x: &[f32], [n, c, h, w]: [usize; 4], mut f: impl FnMut(usize, usize)) {
    let (oh, ow) = (h.div_ceil(2), w.div_ceil(2));
    for plane in 0..n * c {
        let ibase = plane * h * w;
        let obase = plane * oh * ow;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0usize;
                for dy in 0..2 {
                    let iy = (2 * oy + dy).min(h - 1);
                    for dx in 0..2 {
                        let ix = (2 * ox + dx).min(w - 1);
                        let idx = ibase + iy * w + ix;
                        if x[idx] > best {
                            best = x[idx];
                            best_idx = idx;
                        }
                    }
                }
                f(obase + oy * ow + ox, best_idx);
            }
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, ws: &mut Workspace, _train: bool) {
        let shape @ [n, c, h, w] = ws.output_shape();
        let io = ws.push([n, c, h.div_ceil(2), w.div_ceil(2)]);
        for_each_winner(io.x, shape, |o, i| io.y[o] = io.x[i]);
    }

    fn backward(&mut self, ws: &mut Workspace, input_grad: bool) {
        let shape = ws.input_shape();
        ws.backward(input_grad, 0, |io| {
            if let Some(gx) = io.gx {
                gx.fill(0.0);
                for_each_winner(io.x, shape, |o, i| gx[i] += io.go[o]);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use crate::Tensor;

    fn pool(x: &Tensor) -> (Vec<f32>, [usize; 4]) {
        let mut ws = Workspace::default();
        let y = gradcheck::forward(&mut MaxPool2d::new(), &mut ws, x);
        (y, ws.output_shape())
    }

    #[test]
    fn pool_halves_even_dims() {
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let (y, shape) = pool(&x);
        assert_eq!(shape, [1, 1, 2, 2]);
        assert_eq!(y, [5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn pool_ceils_odd_dims() {
        let x = Tensor::from_vec((0..9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let (y, shape) = pool(&x);
        assert_eq!(shape, [1, 1, 2, 2]);
        assert_eq!(y, [4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 9.0, 5.0, 6.0, 7.0, 8.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let g = gradcheck::input_grad(&mut MaxPool2d::new(), &x, &[1.0; 4]);
        // Exactly four gradient entries, each 1.0, at the max positions.
        let nonzero: Vec<usize> = g
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0.0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(nonzero.len(), 4);
        assert!(nonzero.contains(&5), "5.0 at flat index 5 wins its window");
        assert!(nonzero.contains(&3), "9.0 at flat index 3 wins its window");
    }

    #[test]
    fn out_side_helper() {
        assert_eq!(MaxPool2d::out_side(4), 2);
        assert_eq!(MaxPool2d::out_side(5), 3);
        assert_eq!(MaxPool2d::out_side(1), 1);
    }
}
