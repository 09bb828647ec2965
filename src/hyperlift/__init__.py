"""Lift a frozen Euclidean dual encoder into Lorentz hyperbolic space via
parameter-efficient fine-tuning, train with compositional contrastive and
entailment-cone objectives, and evaluate zero-shot multiple-choice VQA by
hyperbolic distance matching."""
