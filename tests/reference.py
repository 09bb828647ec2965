"""Reference values the tests share: the paper's full-size backbones, and the
trainable tensors of a parameter store."""

from hyperlift.encoders import EncoderConfig

# Symbolic architectures for the full-size parameter-budget checks.
CLIP_B_TEXT = EncoderConfig(n_layers=12, d_model=512, n_heads=8, proj_dim=512, vocab_size=49408, max_len=77)
CLIP_B_VISION = EncoderConfig(n_layers=12, d_model=768, n_heads=12, proj_dim=512,
                              patch_grid=(14, 14), image_size=224)
CLIP_S_TEXT = EncoderConfig(n_layers=12, d_model=512, n_heads=8, proj_dim=512, vocab_size=49408, max_len=77)
CLIP_S_VISION = EncoderConfig(n_layers=12, d_model=384, n_heads=6, proj_dim=512,
                              patch_grid=(14, 14), image_size=224)


def trainable_params(store) -> dict:
    """{name: tensor} of the trainable parameters, in store order.
    `check_gradients` picks its probes by position, so the order is part of
    what a seeded check computes; `store.trainable` is an unordered set."""
    return {n: t for n, t in store.items() if t.requires_grad}


def n_trainable(store) -> int:
    """The number of trainable scalars in `store`."""
    return sum(t.data.size for t in trainable_params(store).values())
