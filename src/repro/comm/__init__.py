"""Communication substrate: messages, channels, codecs, transcripts.

This subpackage implements the plumbing under the Goldreich–Juba–Sudan model:
the message profiles exchanged each synchronous round (:mod:`.messages`), the
party roles (:mod:`.channels`), the bijective string codecs that model
*language mismatch* between user and server (:mod:`.codecs`), and
transcript recording (:mod:`.transcripts`).
"""

from repro.comm.messages import (
    SILENCE,
    UserInbox,
    UserOutbox,
    ServerInbox,
    ServerOutbox,
    WorldInbox,
    WorldOutbox,
    parse_tagged,
    tagged,
)
from repro.comm.channels import Roles
from repro.comm.codecs import (
    Codec,
    IdentityCodec,
    ReverseCodec,
    CaesarCodec,
    AlphabetPermutationCodec,
    TokenMapCodec,
    XorMaskCodec,
    ComposedCodec,
    PrefixCodec,
    codec_family,
)
from repro.comm.transcripts import Transcript, TranscriptEntry

__all__ = [
    "SILENCE",
    "UserInbox",
    "UserOutbox",
    "ServerInbox",
    "ServerOutbox",
    "WorldInbox",
    "WorldOutbox",
    "parse_tagged",
    "tagged",
    "Roles",
    "Codec",
    "IdentityCodec",
    "ReverseCodec",
    "CaesarCodec",
    "AlphabetPermutationCodec",
    "TokenMapCodec",
    "XorMaskCodec",
    "ComposedCodec",
    "PrefixCodec",
    "codec_family",
    "Transcript",
    "TranscriptEntry",
]
