"""Byte parity of the CLI's outputs with digests captured at a known-good commit.

The corpus runs ``cv --mode nested``, ``cv --mode flat`` and ``fit`` then
``predict`` for every splitter (potr, srtr, lsoo, exhaustive) and both built-in
classifiers (``linear``, ``kernel-ridge --kernels 16``) on three datasets (4,
5 and 9 classes), at 3 iterations and 3 x 3 folds, and hashes
``report.json``, ``folds.csv``, ``predictions.csv`` and stdout.  No fold scores 1.0, so a change in which
tree is selected changes a digest.

``model.json`` is not hashed, as its weight bits depend on the BLAS.  Each
fitted bundle is decoded instead: its tree text must match exactly, and per
node a weighted checksum of the weights, intercepts, feature mean and
feature scale must match within ``MODEL_TOLERANCE``, so a change that moves
the fitted numbers but no prediction is still seen.  A ``kernel-ridge`` node
stores its decision on the raw features; the checksums are taken on the
standardised-feature weights it was solved as (:func:`model_checksums`).

After a deliberate change to the outputs, print the new digests and model
checksums with ``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from hiertsc import (
    LcpnModel,
    TimeSeriesDataset,
    cli,
    collinear_superclusters,
    load_dataset,
    save_dataset,
    tree_to_text,
)

SPLITTERS = ("potr", "srtr", "lsoo", "exhaustive")
CLASSIFIERS = {
    "linear": ("--classifier", "linear"),
    "kernel16": ("--classifier", "kernel-ridge", "--kernels", "16"),
}
COMMON = ("--iters", "3", "--inner-folds", "3", "--seed", "0")

#: captured at commit 05c1744, before folds and fits became row-index runs;
#: the ``exhaustive`` entries at commit afc8e29, before split scoring prepared
#: each class set's rows once (``exhaustive`` scores every bipartition of a
#: class set on one prepared row set, so it leans hardest on that reuse); the
#: ``many`` entries (nine classes) at commit b1ada01, before split scoring
#: solved once per class set, so that the per-class solutions it sums are
#: held to the old per-bipartition fits on a large class set
GOLDEN = {
    "collinear-exhaustive-kernel16-fit/stdout": "b3fe6be284f8bd70a106da6e57daf1fb6be2a2a99f3d9e994d0481a8ea1cfc78",
    "collinear-exhaustive-kernel16-flat/folds.csv": "d3887f1abc15fb1637500052be14ac93058ce9c9078b14265a0d66218058bd1d",
    "collinear-exhaustive-kernel16-flat/report.json": "ecde61d28b339578c289e31c051ce4e11356e5c4b223362d123d40200ea34488",
    "collinear-exhaustive-kernel16-flat/stdout": "bc89f64525dd1118d75b716fb95d7f70a00e23e76e1e0c44a96811d8a445ae89",
    "collinear-exhaustive-kernel16-nested/folds.csv": "232d9b537b20bbfda2a1896d39faacdd6c7eeab3c4182b6f6bc85451b63bfa85",
    "collinear-exhaustive-kernel16-nested/report.json": "c1ada1bb916d542e62ef93da744a17ca03dbf9439d3010ff979c7ee684f5b8dc",
    "collinear-exhaustive-kernel16-nested/stdout": "908193dbcd51bd45df4eecbe2ae92958cd4c36a9f59283156ebdd5ef46e22bcd",
    "collinear-exhaustive-kernel16-predict/predictions.csv": "8fa551b2457fd811da393312fa1850d41a6fcac3382c4194ca80db2bb9bc65f0",
    "collinear-exhaustive-kernel16-predict/stdout": "813710593c1a8d4b6ba211398da7195c9723560e5a20b468525cd59e52b67bbd",
    "collinear-exhaustive-linear-fit/stdout": "a83b6070659a8ac26bd50ec3a6b943bd4addbffcfd785cd591110273109e803b",
    "collinear-exhaustive-linear-flat/folds.csv": "aff6e39889567f94504c6d51fe5ceb348dbd13e9d35de072fd978cd8c1e0fa08",
    "collinear-exhaustive-linear-flat/report.json": "026b59e33d8ddf1583c62306dff4f240a802dcc8549d43292146f8422c3afd38",
    "collinear-exhaustive-linear-flat/stdout": "8f396176b4072bd97d0a9b4f6ee2c3e0ecc2638653497500f4699fbb0a3cce8b",
    "collinear-exhaustive-linear-nested/folds.csv": "9398344e1693b590b4637716d2227046495b13b9ea1785c3a2e2cae19e8583f5",
    "collinear-exhaustive-linear-nested/report.json": "e20b0b80e6d200052257925443d9590d2080de12c729c7bf8b75d4b4c5020b9a",
    "collinear-exhaustive-linear-nested/stdout": "6b6cf5af41b895930d10557c852e273f10c10664083ccad5f822dc6b92756d2e",
    "collinear-exhaustive-linear-predict/predictions.csv": "ef2d53ba9715584bda17989149dfc989ee658f76e617a10408238044b6da9bf5",
    "collinear-exhaustive-linear-predict/stdout": "acbeeb0af86502ab7aabff1c8d65cf7da81767ab4a3295405e3f1b9e166aae69",
    "collinear-lsoo-kernel16-fit/stdout": "7b9d417f3ec44f6cfe9747c0429cc108957b508e6ff51b2e3040ff1bd4cf743e",
    "collinear-lsoo-kernel16-flat/folds.csv": "33561184056051b5f7295c510ce57e980a0c127e6d0ac047868d59da5ade835e",
    "collinear-lsoo-kernel16-flat/report.json": "43dd78ac19e72a1164251566ae20e848b8a69928a7142325d55fec8acb647f45",
    "collinear-lsoo-kernel16-flat/stdout": "1fd2ca92c7932784f4dc99ae8632987d011e882dfb73e22b87c26d60f650080e",
    "collinear-lsoo-kernel16-nested/folds.csv": "76bea2ddf72c0757f51e02c52e10c96ae525f5630331455dba32d93a54924222",
    "collinear-lsoo-kernel16-nested/report.json": "78ced060ca9a7e8366bd6c53c702d4f38cc4e8a8dcfe3c23f291852993b1e454",
    "collinear-lsoo-kernel16-nested/stdout": "a4cc53faca2c88197a2a9bb2a9e4830dfda1327f82e98113bf95505dce704316",
    "collinear-lsoo-kernel16-predict/predictions.csv": "175231de7f93838d0817381954fbb3107830a99eb7482ab783dff0b84e3d6ff8",
    "collinear-lsoo-kernel16-predict/stdout": "56b65deac7ae6ae5f9529a45674e2b89b2a21657fffd8a054fb926ff0e8931ae",
    "collinear-lsoo-linear-fit/stdout": "f4c331f90e6a3e279c0128ac7c64a2c7b0a0f67a906ce7281e9693c7b77e276c",
    "collinear-lsoo-linear-flat/folds.csv": "5b93f4ec1d28ec54014f2d8fa81987b0b13c54d80a23c34db8a481261a6dc42a",
    "collinear-lsoo-linear-flat/report.json": "faa916fb842eb40dfdabd41adf301d340af3ebaad88eb1a9f18846b83775d914",
    "collinear-lsoo-linear-flat/stdout": "907c8cdb147cf505ddd18bc4f939c25a628e86c89472e16f5d6615e127b35c72",
    "collinear-lsoo-linear-nested/folds.csv": "10edf561864be114720e08a00b5d481f8900b537b471feb206feb00927e730ca",
    "collinear-lsoo-linear-nested/report.json": "151da82c94faf8ebfd735d0cab8e632063e669c51fbda8fd1fb468d0f51bd0aa",
    "collinear-lsoo-linear-nested/stdout": "6304b562d69ade6bd11807cc9620e0aedd11728e38ec3cf7172597201f96c025",
    "collinear-lsoo-linear-predict/predictions.csv": "7380748a7ceeaa79ff3cd5403c4b071570abad7add09c4ae4a1b289965c3c9ad",
    "collinear-lsoo-linear-predict/stdout": "0dda7cc40b82b08e04c56c183d37e422731e8ea321d114eca8669429896a34a9",
    "collinear-potr-kernel16-fit/stdout": "23c65e9795bc51c62e0ce92a60665d85358941020c3132ad630a251bf3fc541f",
    "collinear-potr-kernel16-flat/folds.csv": "562614463438bd516a7b973a4a0a9c716b7c1a230229d4da0c969e8902a7ddbd",
    "collinear-potr-kernel16-flat/report.json": "9e7f128ad22e85deb660c8f7efa8ad277406eac2c0831afb2a202e96f640327e",
    "collinear-potr-kernel16-flat/stdout": "bc89f64525dd1118d75b716fb95d7f70a00e23e76e1e0c44a96811d8a445ae89",
    "collinear-potr-kernel16-nested/folds.csv": "84a10dd5d0a09402a72c188b70a8b057f79792aa0e369686338aaba137dacef0",
    "collinear-potr-kernel16-nested/report.json": "e70185a2248f7d2875e651d4b93bdc7087983b3e26e99849fea0c3abef9cb569",
    "collinear-potr-kernel16-nested/stdout": "bb0ee57b5be472b7aee7f056058006163e1ea8aef2a134c44a75350e2625d811",
    "collinear-potr-kernel16-predict/predictions.csv": "c0b296c8fb93ace963aab04600ab82191b6586a5b89bced106f6cba5602c8730",
    "collinear-potr-kernel16-predict/stdout": "c35275084655207afdebdc5e510d27cb0671c0a19d212cc044c7a61aa6886f17",
    "collinear-potr-linear-fit/stdout": "de5768c61a40a0dde2b2e2e347d9b735d9436e19d3b49305185274bdbb9c9db8",
    "collinear-potr-linear-flat/folds.csv": "1d49f418bb02d2c4f26988d5fc22132da787cfe734a2018ed8851ca9f1a7fae0",
    "collinear-potr-linear-flat/report.json": "29f41a73a8dbb24a76a4cf1cb1f924f5d139af9d61751033bb144eeadad9093f",
    "collinear-potr-linear-flat/stdout": "8836be94550a5b48b1a1e4e61bdc4872cdd6066d0e9b94910efb147b719b69ca",
    "collinear-potr-linear-nested/folds.csv": "d8242729be28e59b1b8edb098a94e388d0ac0ccad35d3d5f841b5e3e44cfa523",
    "collinear-potr-linear-nested/report.json": "0baacac00be1ea3d300b48523e0bf49a95a18e7acdf2e0013d629e89b04718ef",
    "collinear-potr-linear-nested/stdout": "d38cffe4ae783903b7d50d25b5cb26bea3dbb2960a3631d776d3ac5a51036b9b",
    "collinear-potr-linear-predict/predictions.csv": "ef2d53ba9715584bda17989149dfc989ee658f76e617a10408238044b6da9bf5",
    "collinear-potr-linear-predict/stdout": "acbeeb0af86502ab7aabff1c8d65cf7da81767ab4a3295405e3f1b9e166aae69",
    "collinear-srtr-kernel16-fit/stdout": "f43673dd567f7a23d4dfb946d54f0765c041518681994963409ba4722547d938",
    "collinear-srtr-kernel16-flat/folds.csv": "0e06bc6ba02dd13cbb8fc04dcaadb448231aa0ed1140aef1af8905734a5d6710",
    "collinear-srtr-kernel16-flat/report.json": "69679847bdb59c487ba07764b1810bfea305155cdabea84450b27dbc9fc2c9fb",
    "collinear-srtr-kernel16-flat/stdout": "192a53f14629771ea168bc3ec20fff88b5418d7e315bb2f8eb5dd7b8c72491b2",
    "collinear-srtr-kernel16-nested/folds.csv": "7b17dfae1e00b1ce2db15d8051c2fa2785f4538a860270f540b2789e21850248",
    "collinear-srtr-kernel16-nested/report.json": "12b6ad9ef1421978f2a1c5403d245f6b2925a178f5b5d15f286dc3722012575b",
    "collinear-srtr-kernel16-nested/stdout": "8ac1147030d3fc34020fb1df6ab65c1f39d039d058fa15954a6f288152c005e5",
    "collinear-srtr-kernel16-predict/predictions.csv": "c0b296c8fb93ace963aab04600ab82191b6586a5b89bced106f6cba5602c8730",
    "collinear-srtr-kernel16-predict/stdout": "c35275084655207afdebdc5e510d27cb0671c0a19d212cc044c7a61aa6886f17",
    "collinear-srtr-linear-fit/stdout": "93e2cad84edcd2cc8b31c36b3a6f08b56385fb7605860bf7ebf853b72abb2344",
    "collinear-srtr-linear-flat/folds.csv": "d893f1c0824d622827ea4a153360b08df101706049cd645e52591899ab866ed5",
    "collinear-srtr-linear-flat/report.json": "81ad25fc68917fc9f3c2335d61bfdc1f2b52c4753419ae851d66070befe1af95",
    "collinear-srtr-linear-flat/stdout": "8f396176b4072bd97d0a9b4f6ee2c3e0ecc2638653497500f4699fbb0a3cce8b",
    "collinear-srtr-linear-nested/folds.csv": "aed73bbe399afe5b00aa8f1985fcd77d2863d699a6a9df1921dddade0b74c0fc",
    "collinear-srtr-linear-nested/report.json": "e6e4141f8fec8697d3820d6b82014125a393a5f9e1ad6bfe9d586dccc70637bf",
    "collinear-srtr-linear-nested/stdout": "6b6cf5af41b895930d10557c852e273f10c10664083ccad5f822dc6b92756d2e",
    "collinear-srtr-linear-predict/predictions.csv": "ef2d53ba9715584bda17989149dfc989ee658f76e617a10408238044b6da9bf5",
    "collinear-srtr-linear-predict/stdout": "acbeeb0af86502ab7aabff1c8d65cf7da81767ab4a3295405e3f1b9e166aae69",
    "many-exhaustive-kernel16-fit/stdout": "10711387d2c742d51a2643df76dcd56146202bc60161c152f72a449a6c195678",
    "many-exhaustive-kernel16-flat/folds.csv": "baab736a40814484073c4a70ce05171bd05aa7107044ba77bff81e0586f806ee",
    "many-exhaustive-kernel16-flat/report.json": "074366d308ccfe584f2385c9fca55000e09aca3637ce8bcfbf0cf3ea5f338376",
    "many-exhaustive-kernel16-flat/stdout": "6779b0469b69682715c00acebbced0d8cfc63b52e14a6cec188d9cc20e1317b7",
    "many-exhaustive-kernel16-nested/folds.csv": "cfb366512bb50425da9aca875da045fe22c5365c0ce3fbd619b189af1a0d531a",
    "many-exhaustive-kernel16-nested/report.json": "beb424026dbbb441cc8c3bcf57f8e6654fa399398f8b49fa51c149e43f406397",
    "many-exhaustive-kernel16-nested/stdout": "a7dd00b5e5c0bdf7688e96ee8750558082446775292521db61c05d48c598be34",
    "many-exhaustive-kernel16-predict/predictions.csv": "9655e7c4fcb954af493fd7a583c6b225d9a02d1d17f04e65d444c265af5650d8",
    "many-exhaustive-kernel16-predict/stdout": "2d4685e47feb4b4a455010e66c98102d9b984e140e5da746bf02adff0d8705f0",
    "many-exhaustive-linear-fit/stdout": "d37ab5a3e1dcfc809cc730247f3b1c1d73b87003e1d397f66cdf872f49a0c98b",
    "many-exhaustive-linear-flat/folds.csv": "450c5289cb7cb6caa1721458d475d461e0fd33ff2e6a06d46989eaaee4fb5f6e",
    "many-exhaustive-linear-flat/report.json": "4b45aa0241b50994bc40dfd3208ea913e5f9577ec9ee490a1e36670f1db454ae",
    "many-exhaustive-linear-flat/stdout": "572f13d9b1b9f53ba3f5904d9205bcb1cfae0a621b583ea74bb5a07f374b55ce",
    "many-exhaustive-linear-nested/folds.csv": "8a861701077cd76d70eca65eeaaf967cba6d72db492598863d697b410997c206",
    "many-exhaustive-linear-nested/report.json": "9feca01adfdb7e3f1edc544de73f0be4dbcaf54232729dcb46f54f62c2a3e032",
    "many-exhaustive-linear-nested/stdout": "6985031e56a34b5f1f1d75411091380c6b01d474c870c855d87c320b5541a1cd",
    "many-exhaustive-linear-predict/predictions.csv": "c43fdeaf332ac2802a532a06d014ae131404739b7860c9838affbdf68b248967",
    "many-exhaustive-linear-predict/stdout": "b345c75f30d3e8ae99c64786f6b72df64fabe922db6a43441736570b47689fb0",
    "many-lsoo-kernel16-fit/stdout": "95a7eaab3db7d62d62451c1a6ab8f3b2e6b550063a550fba372b700153f5755a",
    "many-lsoo-kernel16-flat/folds.csv": "eb523e63a8afa78065785ae217b745e5843fdf0094f8d963e778b5a4122c89a6",
    "many-lsoo-kernel16-flat/report.json": "17ac50dabaa81b03893abba37725df891ac5213b35de2abb7430bd229bca7fd9",
    "many-lsoo-kernel16-flat/stdout": "9d77539f3a9f6654765802135d7969990540e711ba6d78cf7fe5f1d826a9d678",
    "many-lsoo-kernel16-nested/folds.csv": "4ea0a4d41451ac6b2529cb1c4a9948736bdfee0be2814d093252d9e2a1fa9c0b",
    "many-lsoo-kernel16-nested/report.json": "aed2e5d9e301712691e8c0216e8eccb0e4e936840ee39049bd9168be8d16bbbb",
    "many-lsoo-kernel16-nested/stdout": "78301681aae1bd11cd6e24d3674be54097d2d332775416d1c97aecffbc181c7f",
    "many-lsoo-kernel16-predict/predictions.csv": "cfdd655a10ed8d2c801bb8f973bd31433130805e5abe000e87033ef9473d9d39",
    "many-lsoo-kernel16-predict/stdout": "6cb1360f6a0bb6c2b6df5d604078875e31c6d545759893fa59eafde478195285",
    "many-lsoo-linear-fit/stdout": "008e497bfca195c2f7878db3384b88d7595e36b74f23389614e2b123632dc2a6",
    "many-lsoo-linear-flat/folds.csv": "7170d85b8ae399ac82b3e2054df31c48d79fa5663ffb8ef520db2a6b7155eea6",
    "many-lsoo-linear-flat/report.json": "a5c34f98ab676690315fd710c050211876ac4deffb522e42686c8bcebce387bb",
    "many-lsoo-linear-flat/stdout": "85ee9d173e4c942d50fc2a383d9996a1dc193eadb42cb5544c8663c04bb52b34",
    "many-lsoo-linear-nested/folds.csv": "1bc680fd8b0a00e7723f4f6b2e4fb36070a7fd8978506c52d4ff466f86614af9",
    "many-lsoo-linear-nested/report.json": "a8e1befa3ad186dca262ca8d5704862339cd14053f807d7607177e7a81f388a0",
    "many-lsoo-linear-nested/stdout": "4ba9e276227b9d940e6860796155f262ad888083e033d2765d187a01e59f3c88",
    "many-lsoo-linear-predict/predictions.csv": "a83e2a855cfd4038b2fd9cc10f2922188ad7678c10cafa38abeee59fb2ea7892",
    "many-lsoo-linear-predict/stdout": "30b5161b6cd7c2e2d030d6da7695c9224d3afc6e204c0544f93e1b32f29b2cc0",
    "many-potr-kernel16-fit/stdout": "0a168da577e276fdff5cdc0e2fb1fffaa70a5e4388456f5f182540682d2e4ccf",
    "many-potr-kernel16-flat/folds.csv": "a65c90671392d7c38edde4ac72d390f7e33206420d350461f4995eed8c12bf3f",
    "many-potr-kernel16-flat/report.json": "beaa10d8977d3d0ba12a605220642fb2a046880dc639761868a4410477f4d9e2",
    "many-potr-kernel16-flat/stdout": "c00a9bb33a94c4f1663819996722ab9eb8d97b9a6b19292523dd41b0004f0bfc",
    "many-potr-kernel16-nested/folds.csv": "b9a44a3fee9c3725610fb8c5547904563ca7a390c722d88cb0cf39deff330ea9",
    "many-potr-kernel16-nested/report.json": "3bcf65cac93645dc7205a6b2096fa3d1d6df9d93940cc7bef550396907015591",
    "many-potr-kernel16-nested/stdout": "8cbed3d5b96694f996e44c094b1c8b9da6e64c6982616498b02cdbcd0fd557d7",
    "many-potr-kernel16-predict/predictions.csv": "4403b9844231a05a2f935c26ba1140c74f716b425b6a394d46cbe4c00349e32f",
    "many-potr-kernel16-predict/stdout": "d7e537fdefde7f4292ae4bd48f5e90ad3701017b137c8c24a17f27732d597ef1",
    "many-potr-linear-fit/stdout": "d5a29b9f8d858a075b49035b569ddb8d59ef6e92aefb9d88e31f40b29e4c1de2",
    "many-potr-linear-flat/folds.csv": "597962b2f7b9454186605b4d0df4d9002a0695508b0eb486554b59198c13b028",
    "many-potr-linear-flat/report.json": "95fc9feeab72e268287b293d9d55015b60bc669527502aee63cb64506cb82e26",
    "many-potr-linear-flat/stdout": "cc61c5fb2b906e4226518f3cdcff91e92ecb5642c4cd3558b2a3dacfd775efb0",
    "many-potr-linear-nested/folds.csv": "ee71c14050a5ea0384d522b9e69fa930e49569f3aefdff3f1076dd56bcb912a0",
    "many-potr-linear-nested/report.json": "7f54831f01fd42570a6da66fe53c4f9ad81b4b4fe3a2bc51da05fb7b3b431791",
    "many-potr-linear-nested/stdout": "00a4dcfb8cbd9a4330ccb8fd9dd8408d8180988ac08887c939191ecd28c5e28b",
    "many-potr-linear-predict/predictions.csv": "449f887a707b744af0b8ce82f1c45d32240bb4733801855b16d56a4c5351959c",
    "many-potr-linear-predict/stdout": "f01d819b3447d0d2e15613cc90ba66144863eb21be42e5355ff6276338020e3f",
    "many-srtr-kernel16-fit/stdout": "ee1d65224ffe71837e9d28490cc38d1bc880a372b482f8384a240d51aeade39c",
    "many-srtr-kernel16-flat/folds.csv": "c24cee10acdaa9e5e60ae2618cc0ce51657f5d0ad80d6a1895aa61d75c8f0f73",
    "many-srtr-kernel16-flat/report.json": "4f207ea844984ecc9e0ff481e027853b27b7fe2ed35dae4afc46fd43899a972c",
    "many-srtr-kernel16-flat/stdout": "7116b1c9193670a31d564f2aba707f49e1fa5e5ae0ad3ab0eb2f6e1671d6f688",
    "many-srtr-kernel16-nested/folds.csv": "2d8e3d06cf8ea385e86f894e962df76851e9b8556b86361cfffd8d398344f29b",
    "many-srtr-kernel16-nested/report.json": "6bf13f7082bb55efbf5f843ba6d3b21fde7b9f042338c66804f3d80d2ce99e59",
    "many-srtr-kernel16-nested/stdout": "1fbc71fa219357c6f4e7adfc3809d595ad1a64d704bfaf58f45c1f4c4c65ede3",
    "many-srtr-kernel16-predict/predictions.csv": "33e59e5bc7019879129d9f13b71886f8498764d41e2939ef1e1f69be97dcd47e",
    "many-srtr-kernel16-predict/stdout": "3fa929ba40c83e2341fb5f29b24a8d684c36270645002de136d73ae30f74a057",
    "many-srtr-linear-fit/stdout": "e5be7a39b6e2e05474bb03c5161f39a9d70ccbec81c53da36d8c6526b71deca8",
    "many-srtr-linear-flat/folds.csv": "e95e38e7007852663bfa5c70981688188c14f9af178b5cae8101b300b0811a1c",
    "many-srtr-linear-flat/report.json": "9f56074dd3a563239ea81ed4053c23ad78932e70cd8dc2e94eb973d6cc9f3238",
    "many-srtr-linear-flat/stdout": "821cb900a9123691ad61df4baec1bf5315c0dd0baad424e31f58fd29ec9138c3",
    "many-srtr-linear-nested/folds.csv": "738b0ffc828fc14fedb1fca4b032c5c7f7813c7b4a4f30c0d43d7b24b743b1c6",
    "many-srtr-linear-nested/report.json": "8a355baefcc4d96cb120c4f878a872cf340481cf037fc299cd5684db9bc7fba5",
    "many-srtr-linear-nested/stdout": "9ea44afb9da14ed2b2fe20dde4945f285b5bffeecfe5742bdf8b6529ace60b7c",
    "many-srtr-linear-predict/predictions.csv": "3be5412634958517a5f1933b66cb164b10fb7f5f255c724f65a886f5d19cbfce",
    "many-srtr-linear-predict/stdout": "171abb75a5caaa7de2e680c2de19efbac87a8e11e81a2051b9c26abc1ef4a1bc",
    "shifted-exhaustive-kernel16-fit/stdout": "06df970ef26c4e8f88a825ef355b4af49c3a157952e6d2e882edaafd8c1b39e2",
    "shifted-exhaustive-kernel16-flat/folds.csv": "0c08cce99cb2ec7202e485d9c7e69b4c4fdd524194005bb8a6748bcc18f52c67",
    "shifted-exhaustive-kernel16-flat/report.json": "93bd85bc843213eb58388eead76fb6670a24c5172d84d92e8c1c7053bad840a0",
    "shifted-exhaustive-kernel16-flat/stdout": "cb974b385523d3f8d3ada8e594723ea283e34e725a1c00dfd6972e661ff8704c",
    "shifted-exhaustive-kernel16-nested/folds.csv": "93fab3da789a47c59becfca3f66faebc91378f38d1fb0953eaaa0c8cbe8da4ac",
    "shifted-exhaustive-kernel16-nested/report.json": "4cb90e3dae425d8b270d5c80e00ac13fdcdf23ba156498c5457b0814bba9db5b",
    "shifted-exhaustive-kernel16-nested/stdout": "95f2da3ecec4d958106a1f85c769a6f7f181dd326de3f4d9f6b8dba2a8bf1191",
    "shifted-exhaustive-kernel16-predict/predictions.csv": "bb863c3b65c1229cda6b499e7761cbcea68b4ec880a99a3b9264294b1cbe1724",
    "shifted-exhaustive-kernel16-predict/stdout": "f28c9f81644cfaccf16a9e677c19322e2733e6542d5a51aa66860490f4b3d537",
    "shifted-exhaustive-linear-fit/stdout": "9a4fbe6b371c98710d203c7c3794121427c1c75ffec239ed4a2873cd6e60031a",
    "shifted-exhaustive-linear-flat/folds.csv": "9fab251ca3d4be493d4e9fe0602510523842d0b47f1e963de44b868cb6b69193",
    "shifted-exhaustive-linear-flat/report.json": "d205e591ded6de7f222ff67e0db5d166e12b148155e5cacba7491913626e0f29",
    "shifted-exhaustive-linear-flat/stdout": "f414a702774490e153467a910cdd6bf2fbce705525a5eb4e81682e1bfa9897af",
    "shifted-exhaustive-linear-nested/folds.csv": "a03543e5bfa290958befe59d168b2e68fe7d02fd9bf259af853ae751988f5d12",
    "shifted-exhaustive-linear-nested/report.json": "b66d19f7f3dedd289a0468b6598b3af014b10eefb50fe3193749e40e3737b6f6",
    "shifted-exhaustive-linear-nested/stdout": "56dd941a0db7a0ea921c4da2fb53bd5c400aba9731a33e7a9fa3417e6ad49eee",
    "shifted-exhaustive-linear-predict/predictions.csv": "74786e7693c7fcb6653e847b806ae40884e31556a56c061664bb18d47f1e97d6",
    "shifted-exhaustive-linear-predict/stdout": "b483c2ba8819b471883520ad8709df0a7b271502645778f627a4c7dd3e2833fa",
    "shifted-lsoo-kernel16-fit/stdout": "f33a4deba09fc75f5dba9ef60d63054f06eeb5a92f065bd05d91c270aad4924e",
    "shifted-lsoo-kernel16-flat/folds.csv": "ccf9f8ad243abfa4e5638f376eb5979be5d98f9c237406dfd36596d431f41ded",
    "shifted-lsoo-kernel16-flat/report.json": "c653b9f719c17d0d644c33f4448662b9ee1338528ff733292bd258d8d3daa088",
    "shifted-lsoo-kernel16-flat/stdout": "2330c5be43dd1fa3766e6caef8ea495ef726286ddbf654382905c594fc3276fa",
    "shifted-lsoo-kernel16-nested/folds.csv": "0ebe67478ff46597be4fd765ff5a88aeb41b283898eff3882f58a97ec78adec3",
    "shifted-lsoo-kernel16-nested/report.json": "0f1ffc2e0bda788629db0359419ab76d50609837d7e0c979fa64a44d33a9d0e3",
    "shifted-lsoo-kernel16-nested/stdout": "877beee8302088d9f53e1e7781cc29c2222ea4c6bae50f2fc6220c52b92c93d0",
    "shifted-lsoo-kernel16-predict/predictions.csv": "dcd637ce3e1eefa1dbf5ed3658a2dd77921ddfb7f3c3f87da7819db42a9fd22a",
    "shifted-lsoo-kernel16-predict/stdout": "b3e670566e416ebb4ede8e03f4fea7ef1038bc1e896bb23a82e929efa366f410",
    "shifted-lsoo-linear-fit/stdout": "e4296d97aa0a18f4f01476e843c55246c6c35de47736d55e888fc78e4690de17",
    "shifted-lsoo-linear-flat/folds.csv": "5afaed481d31edf2771c4d0157b66f4b7c1152eaf2e7ea32ab0ec374b145aa89",
    "shifted-lsoo-linear-flat/report.json": "9282cff68282fe6271cd88886bc44d36f8c33645aad256f4e627732ff0ff596e",
    "shifted-lsoo-linear-flat/stdout": "2eb36817ae357a7ac4fb0da55419643d557961da043da2561ff9308a986e9d52",
    "shifted-lsoo-linear-nested/folds.csv": "704fab5beee91dc052c275ab366b573122bf295e7812132e2e84dc186d1ddcdd",
    "shifted-lsoo-linear-nested/report.json": "57f1da97889cd7f011503316c7de3a01907210ae7ecc4676eef9a4e848e31119",
    "shifted-lsoo-linear-nested/stdout": "f34591a59836abe2f4349fc81bfcdbf04888ee433b00a9ae09b527f52bb604d8",
    "shifted-lsoo-linear-predict/predictions.csv": "7ddeea1c3411e3fa6223df1573aa546a08d9bb92e068b245729bd79b54240115",
    "shifted-lsoo-linear-predict/stdout": "20ba670f67b4c710954bc4272167211673362cebc112d7124dfacc382499073d",
    "shifted-potr-kernel16-fit/stdout": "0972eabbbc1977470eaad36727f4053cffd9f89532ac7d323e2dd4844865b62f",
    "shifted-potr-kernel16-flat/folds.csv": "716f0dfc5744cc07116da4d8e74c46a267cf102c91acf536672fcc7b9eacc8b2",
    "shifted-potr-kernel16-flat/report.json": "582c9b16d2cb1d39f9f8354176c5ed7a336a863822429e372d55b73be11b981d",
    "shifted-potr-kernel16-flat/stdout": "f0924469704ee03a8a9d06d98182b7740be1e0bbdc6d3a4696faab304097c898",
    "shifted-potr-kernel16-nested/folds.csv": "c1b310c4ed2153191cd63572911d2370f62e86078c792a678a6e9f5e5c4bebb7",
    "shifted-potr-kernel16-nested/report.json": "dba6d8c13f75e27d3ec27e2c71eb918131e7742a1d7caade7cdde8b6a3188125",
    "shifted-potr-kernel16-nested/stdout": "8a4e1c7faeaf0c5366fb155bc97b887421df59ade2392af4174f38a620804bc8",
    "shifted-potr-kernel16-predict/predictions.csv": "dcd637ce3e1eefa1dbf5ed3658a2dd77921ddfb7f3c3f87da7819db42a9fd22a",
    "shifted-potr-kernel16-predict/stdout": "b3e670566e416ebb4ede8e03f4fea7ef1038bc1e896bb23a82e929efa366f410",
    "shifted-potr-linear-fit/stdout": "9a0869194ebe2dacba0e7cc39f73858fa7affa6be3575c42ab2d40d5cf78d46d",
    "shifted-potr-linear-flat/folds.csv": "421c2754f5fed9dcb04630360354faaff9417891903d3e9b63b10f5506b615e9",
    "shifted-potr-linear-flat/report.json": "b372b47fab54e778224fb544f590198e9fd939debd638825b51d625f239cde3d",
    "shifted-potr-linear-flat/stdout": "27dc4e884147839b6dbd546de81eb96ebcc7d2303a8770639ff355f12c4adec8",
    "shifted-potr-linear-nested/folds.csv": "e2514a6bef0eadfe586a9ea2b5ca436fb3ab1e92d8530deae9e0495979e6e162",
    "shifted-potr-linear-nested/report.json": "82831c823a646221065eedf90944e3d251712c7f12ba5fb807f0bafc73969549",
    "shifted-potr-linear-nested/stdout": "a658ff355a83bef5c9fd982db77ea617e6562eb08bd58a7e56c4013b3376f884",
    "shifted-potr-linear-predict/predictions.csv": "74786e7693c7fcb6653e847b806ae40884e31556a56c061664bb18d47f1e97d6",
    "shifted-potr-linear-predict/stdout": "b483c2ba8819b471883520ad8709df0a7b271502645778f627a4c7dd3e2833fa",
    "shifted-srtr-kernel16-fit/stdout": "5eb315d9292fa21d1fdc7d4f25a26834bdd187dfacb1446840712e75d0cc1a0b",
    "shifted-srtr-kernel16-flat/folds.csv": "9e0b8fb5ed1aa1473557b03f94a91a666f9c309db323a8cb6736336cfaf1d38f",
    "shifted-srtr-kernel16-flat/report.json": "d3921c204d962163ec3a83a533a904a790001f0f4f2eaf850fe630638c645fe1",
    "shifted-srtr-kernel16-flat/stdout": "aa329be380b0c1c364ab9fdc32d0fee7f9664a828cb675d208c2657e09f1555f",
    "shifted-srtr-kernel16-nested/folds.csv": "fdc1e515d041842fe20a64df5d2677eaba82c35794b47627aa98694077e3f3df",
    "shifted-srtr-kernel16-nested/report.json": "0afcd3b7dc0fd740c413c19af858dcbcd889c7877a47b4632b9c8f0d4c3bcca3",
    "shifted-srtr-kernel16-nested/stdout": "888d50735f8229c6a7248f8ecc9b1ac976e8be715515d52d99080cabe3c504f4",
    "shifted-srtr-kernel16-predict/predictions.csv": "bb863c3b65c1229cda6b499e7761cbcea68b4ec880a99a3b9264294b1cbe1724",
    "shifted-srtr-kernel16-predict/stdout": "f28c9f81644cfaccf16a9e677c19322e2733e6542d5a51aa66860490f4b3d537",
    "shifted-srtr-linear-fit/stdout": "fd02604dd6847d9ef408c2dbff866ffbdd3ac93ab874e812eb2490442ba28c35",
    "shifted-srtr-linear-flat/folds.csv": "208de9c60a10a36fdccc1632e965df769396a8853031a1d6ca87075b54377f89",
    "shifted-srtr-linear-flat/report.json": "dee5c0126f2e38925857c6ddb9776e4d9db4174a782bd226474017d3997b03fd",
    "shifted-srtr-linear-flat/stdout": "52c5fd897ff2121c4480450cbea4fe9fbcb2c352a8eb6b9cd3d084ab3befcf07",
    "shifted-srtr-linear-nested/folds.csv": "e02ba98abf602045ba891e346ada11b03cc572b56fd38a5e054a9f899b28e364",
    "shifted-srtr-linear-nested/report.json": "3eefbb7d8b949528e5efb0f49b8e411065123138cdd3591588b256db443975b6",
    "shifted-srtr-linear-nested/stdout": "6d55e4679d581581bdf176ebee5c7161fcf9693969a0bd681321cc1a63a7f2b9",
    "shifted-srtr-linear-predict/predictions.csv": "d60d98bfe088c47417ad7d7e29184e7aaa4aadc239c172d4bcc5b243c912d18c",
    "shifted-srtr-linear-predict/stdout": "a7ef0c4a7602ac712d36ed9382485d6790f4cd4402a24857bc5e2658ae7e63d9",
}


#: node arrays pinned by checksum, in checksum order
PINNED_ARRAYS = ("weights", "intercepts", "feature_mean", "feature_scale")
MODEL_TOLERANCE = 1e-9

#: captured at commit 801ef7d; the ``exhaustive`` entries at commit afc8e29;
#: the ``many`` entries at commit b1ada01
GOLDEN_MODELS = {
    "collinear-exhaustive-kernel16-fit": (
        "{{{0,1},{2,3}},{{0},{1}},{{2},{3}}}",
        [
            [0.5014859047020385, 9.664358428769292e-17, 216.02593076249386, 60.00588548248679],
            [-1.0368987588578575, -1.74392869567252e-16, 203.74317903193642, 50.18682066763684],
            [0.2149227865015304, 7.625923323701646e-16, 228.3086824930513, 55.94966370653375],
        ],
    ),
    "collinear-exhaustive-linear-fit": (
        "{{{0,1},{2,3}},{{0},{1}},{{2},{3}}}",
        [
            [0.17639529263028814, -1.0279794914134148, None, None],
            [0.9754937278360032, -0.7706903765486565, None, None],
            [1.0140968733012976, -10.996083754566902, None, None],
        ],
    ),
    "collinear-lsoo-kernel16-fit": (
        "{{{1},{0,2,3}},{{0},{2,3}},{{2},{3}}}",
        [
            [0.7022804763654142, 0.49999999999999933, 216.02593076249386, 60.00588548248679],
            [0.45417159850016886, 0.33333333333333265, 221.29367970146401, 59.68615239428756],
            [0.2149227865015304, 7.625923323701646e-16, 228.3086824930513, 55.94966370653375],
        ],
    ),
    "collinear-lsoo-linear-fit": (
        "{{{2},{0,1,3}},{{3},{0,1}},{{0},{1}}}",
        [
            [-0.05672140729723615, 0.7653215496632573, None, None],
            [-0.16944302555767138, 1.0716749773036647, None, None],
            [0.9754937278360032, -0.7706903765486565, None, None],
        ],
    ),
    "collinear-potr-kernel16-fit": (
        "{{{0,3},{1,2}},{{0},{3}},{{1},{2}}}",
        [
            [-0.3003578971325824, 1.1605415547080063e-15, 216.02593076249386, 60.00588548248679],
            [0.2398574661973322, -1.9235474759318727e-16, 226.88919352879486, 61.28340023813557],
            [0.09844627431869721, -2.043411449252063e-16, 205.16266799619285, 53.99459188839336],
        ],
    ),
    "collinear-potr-linear-fit": (
        "{{{2,3},{0,1}},{{2},{3}},{{0},{1}}}",
        [
            [-0.17639529263028814, 1.0279794914134148, None, None],
            [1.0140968733012976, -10.996083754566902, None, None],
            [0.9754937278360032, -0.7706903765486565, None, None],
        ],
    ),
    "collinear-srtr-kernel16-fit": (
        "{{{0,3},{1,2}},{{0},{3}},{{1},{2}}}",
        [
            [-0.3003578971325824, 1.1605415547080063e-15, 216.02593076249386, 60.00588548248679],
            [0.2398574661973322, -1.9235474759318727e-16, 226.88919352879486, 61.28340023813557],
            [0.09844627431869721, -2.043411449252063e-16, 205.16266799619285, 53.99459188839336],
        ],
    ),
    "collinear-srtr-linear-fit": (
        "{{{2,3},{0,1}},{{2},{3}},{{0},{1}}}",
        [
            [-0.17639529263028814, 1.0279794914134148, None, None],
            [1.0140968733012976, -10.996083754566902, None, None],
            [0.9754937278360032, -0.7706903765486565, None, None],
        ],
    ),
    "many-exhaustive-kernel16-fit": (
        "{{{0,1,2},{3,4,5,6,7,8}},{{3,4,6,7},{5,8}},{{3,4,7},{6}},{{0},{1,2}},{{3,4},{7}},{{5},{8}},{{1},{2}},{{3},{4}}}",
        [
            [0.0020259760612338362, 0.33333333333333276, 62.038727515718975, 16.190654480159452],
            [-0.4793109422864713, -0.333333333333334, 63.67089989044356, 15.112689345490125],
            [-0.6711890277713878, -0.5000000000000038, 63.52633140024517, 14.806817619649955],
            [0.0524424483763532, 0.3333333333333342, 58.77438276626981, 15.224314167035864],
            [-0.24203809707258053, -0.3333333333333339, 64.83616754674405, 14.677918570487481],
            [0.04866978178888265, -5.1645419576389654e-17, 63.96003687084033, 15.261856775236053],
            [0.1809881124409912, 6.008571916363007e-16, 59.61710160598575, 14.199800746804788],
            [-0.40335436928185164, -6.109184339020206e-16, 65.0063116972708, 12.731941467062656],
        ],
    ),
    "many-exhaustive-linear-fit": (
        "{{{0,1,2},{3,4,5,6,7,8}},{{3,4},{5,6,7,8}},{{5,6,8},{7}},{{0,1},{2}},{{5},{6,8}},{{3},{4}},{{0},{1}},{{6},{8}}}",
        [
            [-0.03479538052324116, 0.45988182495212304, None, None],
            [0.7271448836819592, -0.3191187420757647, None, None],
            [2.8832648072971923, -1.655385718361978, None, None],
            [1.5833755838792543, -1.682124500979188, None, None],
            [0.9051383606376981, 1.1477441204414114, None, None],
            [-0.329592805736142, -0.6029278803276659, None, None],
            [1.7327634470201216, -0.32405897775824355, None, None],
            [0.1024110017775186, 0.3678733095465159, None, None],
        ],
    ),
    "many-lsoo-kernel16-fit": (
        "{{{0},{1,2,3,4,5,6,7,8}},{{1},{2,3,4,5,6,7,8}},{{4},{2,3,5,6,7,8}},{{3},{2,5,6,7,8}},{{5},{2,6,7,8}},{{8},{2,6,7}},{{7},{2,6}},{{2},{6}}}",
        [
            [-0.28347787993601, 0.7777777777777768, 62.038727515718975, 16.190654480159452],
            [0.44842972846229456, 0.7499999999999998, 62.65745031932911, 15.665694899119657],
            [-0.8778218529352153, 0.7142857142857127, 63.07683662649349, 15.467091130744786],
            [0.613130696671577, 0.6666666666666675, 62.939633332955815, 15.911349132616667],
            [0.9192063595817139, 0.6000000000000023, 62.30504659818257, 15.991485544697838],
            [2.2296026397103614, 0.4999999999999994, 60.49333617665752, 15.868334500470446],
            [-0.920570524517863, 0.3333333333333349, 61.20171974974406, 16.010547716810635],
            [-0.5972392697785738, -3.0402579129469346e-16, 59.55464000177082, 14.612263917253529],
        ],
    ),
    "many-lsoo-linear-fit": (
        "{{{1},{0,2,3,4,5,6,7,8}},{{5},{0,2,3,4,6,7,8}},{{0},{2,3,4,6,7,8}},{{2},{3,4,6,7,8}},{{7},{3,4,6,8}},{{8},{3,4,6}},{{6},{3,4}},{{3},{4}}}",
        [
            [0.23952966178017832, 0.8326221688743716, None, None],
            [0.2873177930687031, 0.9714676691645683, None, None],
            [0.9220749336945738, 0.3616528993473145, None, None],
            [-0.5737127123730612, 1.0264799482335003, None, None],
            [0.3877644773790986, 0.6989641504882209, None, None],
            [-1.4397897844232388, 1.5576943730405273, None, None],
            [-1.7210303129264084, 0.4756858617960744, None, None],
            [-0.329592805736142, -0.6029278803276659, None, None],
        ],
    ),
    "many-potr-kernel16-fit": (
        "{{{0},{1,2,3,4,5,6,7,8}},{{1,5,7,8},{2,3,4,6}},{{1,7,8},{5}},{{2,3},{4,6}},{{1},{7,8}},{{2},{3}},{{4},{6}},{{7},{8}}}",
        [
            [-0.28347787993601, 0.7777777777777768, 62.038727515718975, 16.190654480159452],
            [0.3569630150086447, 1.8426881689131227e-15, 62.65745031932911, 15.665694899119657],
            [1.8739963351170021, -0.5000000000000059, 63.0344247891374, 16.392269576905107],
            [0.17052391476534945, -9.102780487946985e-16, 62.280475849520826, 14.389086380149841],
            [0.6402765388498828, 0.3333333333333344, 60.86193695742226, 16.394079587759443],
            [-0.5847943386776817, 2.1204602590371645e-16, 62.81251202480759, 14.529103071372596],
            [-0.34151387064379646, 3.5283965954848855e-17, 61.748439674234035, 13.07837769684272],
            [-0.4937370351177134, 5.457608425335438e-16, 61.4320323515442, 15.199751347925877],
        ],
    ),
    "many-potr-linear-fit": (
        "{{{6,7,8},{0,1,2,3,4,5}},{{0},{1,2,3,4,5}},{{1,2,4,5},{3}},{{1,2},{4,5}},{{6,8},{7}},{{1},{2}},{{4},{5}},{{6},{8}}}",
        [
            [-0.8634058880347761, 0.31358141048278915, None, None],
            [1.2836507642203105, 0.5505518588306709, None, None],
            [4.690307314930408, -0.2209128300866281, None, None],
            [0.60766968284493, 1.2672960621292049, None, None],
            [3.289817021525603, -2.083748925798406, None, None],
            [0.4986817482199226, -0.8694137211635569, None, None],
            [0.7036643629044871, -0.8951946446437785, None, None],
            [0.1024110017775186, 0.3678733095465159, None, None],
        ],
    ),
    "many-srtr-kernel16-fit": (
        "{{{3,4,5,6,7,8},{0,1,2}},{{4,7},{3,5,6,8}},{{6,8},{3,5}},{{2},{0,1}},{{4},{7}},{{6},{8}},{{3},{5}},{{0},{1}}}",
        [
            [-0.0020259760612338362, -0.33333333333333276, 62.038727515718975, 16.190654480159452],
            [-1.0831512306380033, 0.3333333333333343, 63.67089989044356, 15.112689345490125],
            [-2.208265561067445, -6.8021822006192945e-15, 63.4073659273128, 15.179529405970005],
            [-0.056834305109646016, 0.3333333333333338, 58.77438276626981, 15.224314167035864],
            [0.0393836346105195, 3.863715111229354e-16, 64.19796781670506, 14.531116548465427],
            [0.008780632397662053, 6.680220362894783e-16, 58.98250420907317, 13.935363845404334],
            [1.4959162507182158, -2.0835958496848816e-16, 67.83222764555242, 13.374777315922525],
            [-0.061149230720358716, 1.070938918893212e-15, 58.40534562800814, 15.225182903797283],
        ],
    ),
    "many-srtr-linear-fit": (
        "{{{0,4,7,8},{1,2,3,5,6}},{{5,6},{1,2,3}},{{0,4},{7,8}},{{1,2},{3}},{{5},{6}},{{0},{4}},{{7},{8}},{{1},{2}}}",
        [
            [1.4643077089717023, -0.6732899062571449, None, None],
            [0.7647548179105632, 0.1123349915595887, None, None],
            [0.46099096121748034, -0.29415131515767645, None, None],
            [1.257338520980025, 0.43113292658061725, None, None],
            [1.324144998220135, 0.8018944039336237, None, None],
            [1.2857381662322762, -0.1626419774283997, None, None],
            [-2.3919015178879026, 1.0790681195083305, None, None],
            [0.4986817482199226, -0.8694137211635569, None, None],
        ],
    ),
    "shifted-exhaustive-kernel16-fit": (
        "{{{0,1},{2,3,4}},{{2,3},{4}},{{0},{1}},{{2},{3}}}",
        [
            [1.4032493417488752, 0.19999999999999818, 62.50890183659618, 15.908607529176045],
            [0.181016212781289, -0.33333333333333404, 64.31141838685991, 15.227786388228992],
            [0.95082623167367, 5.184705977411596e-16, 59.80512701120059, 14.144572857747693],
            [-0.19894205560706096, -7.926596539009107e-17, 67.27303889367475, 13.11217918486187],
        ],
    ),
    "shifted-exhaustive-linear-fit": (
        "{{{0,4},{1,2,3}},{{1,2},{3}},{{0},{4}},{{1},{2}}}",
        [
            [0.36916365548883956, -0.11174080157559613, None, None],
            [2.0779999018775293, -0.7536263528279403, None, None],
            [0.534472248228709, -0.0006491094545892154, None, None],
            [-0.05905276920459945, 0.056981153216574064, None, None],
        ],
    ),
    "shifted-lsoo-kernel16-fit": (
        "{{{1},{0,2,3,4}},{{0},{2,3,4}},{{4},{2,3}},{{2},{3}}}",
        [
            [0.29026020511753925, 0.5999999999999992, 62.50890183659618, 15.908607529176045],
            [1.423091943013907, 0.49999999999999994, 62.28231163800243, 16.24294195320784],
            [-0.181016212781289, 0.33333333333333404, 64.31141838685991, 15.227786388228992],
            [-0.19894205560706096, -7.926596539009107e-17, 67.27303889367475, 13.11217918486187],
        ],
    ),
    "shifted-lsoo-linear-fit": (
        "{{{4},{0,1,2,3}},{{0},{1,2,3}},{{3},{1,2}},{{1},{2}}}",
        [
            [-0.4818430921854612, 0.5038796102450969, None, None],
            [0.9566013887834243, -0.25060102442088394, None, None],
            [-2.0779999018775293, 0.7536263528279403, None, None],
            [-0.05905276920459945, 0.056981153216574064, None, None],
        ],
    ),
    "shifted-potr-kernel16-fit": (
        "{{{0,2,3,4},{1}},{{2,3,4},{0}},{{4},{2,3}},{{2},{3}}}",
        [
            [-0.29026020511753925, -0.5999999999999992, 62.50890183659618, 15.908607529176045],
            [-1.423091943013907, -0.49999999999999994, 62.28231163800243, 16.24294195320784],
            [-0.181016212781289, 0.33333333333333404, 64.31141838685991, 15.227786388228992],
            [-0.19894205560706096, -7.926596539009107e-17, 67.27303889367475, 13.11217918486187],
        ],
    ),
    "shifted-potr-linear-fit": (
        "{{{0,4},{1,2,3}},{{1,2},{3}},{{0},{4}},{{1},{2}}}",
        [
            [0.36916365548883956, -0.11174080157559613, None, None],
            [2.0779999018775293, -0.7536263528279403, None, None],
            [0.534472248228709, -0.0006491094545892154, None, None],
            [-0.05905276920459945, 0.056981153216574064, None, None],
        ],
    ),
    "shifted-srtr-kernel16-fit": (
        "{{{2,3,4},{0,1}},{{4},{2,3}},{{0},{1}},{{2},{3}}}",
        [
            [-1.4032493417488752, -0.19999999999999818, 62.50890183659618, 15.908607529176045],
            [-0.181016212781289, 0.33333333333333404, 64.31141838685991, 15.227786388228992],
            [0.95082623167367, 5.184705977411596e-16, 59.80512701120059, 14.144572857747693],
            [-0.19894205560706096, -7.926596539009107e-17, 67.27303889367475, 13.11217918486187],
        ],
    ),
    "shifted-srtr-linear-fit": (
        "{{{1,2,3,4},{0}},{{4},{1,2,3}},{{1,2},{3}},{{1},{2}}}",
        [
            [-0.8510067476743028, -0.3843795881793053, None, None],
            [-1.193537250499928, 0.3244647888775185, None, None],
            [2.0779999018775293, -0.7536263528279403, None, None],
            [-0.05905276920459945, 0.056981153216574064, None, None],
        ],
    ),
}


def shifted_bumps(seed, n_per_class=10, n_classes=5, length=32, noise=0.3):
    """One Gaussian bump per class at its own position, randomly shifted."""
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    rows, labels = [], []
    for cls in range(n_classes):
        centre = 4 + cls * (length - 8) / (n_classes - 1)
        for _ in range(n_per_class):
            shift = rng.integers(-5, 6)
            rows.append(np.exp(-0.5 * ((t - centre - shift) / 2.0) ** 2) + rng.normal(0, noise, length))
            labels.append(cls)
    return TimeSeriesDataset(np.vstack(rows), np.asarray(labels))


def _datasets():
    return {
        "collinear": (
            collinear_superclusters(n_per_class=12, series_length=32, noise=1.5),
            collinear_superclusters(n_per_class=6, series_length=32, noise=1.5, seed=1),
        ),
        "shifted": (shifted_bumps(seed=0), shifted_bumps(seed=1, n_per_class=4)),
        "many": (
            shifted_bumps(seed=2, n_per_class=8, n_classes=9),
            shifted_bumps(seed=3, n_per_class=3, n_classes=9),
        ),
    }


def _run(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(args))
    assert code == 0, args
    return out.getvalue()


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _checksum(array):
    """Sum of a flattened array weighted 1..2 along it, so that moving a value
    changes it too; None for an absent array."""
    if array is None:
        return None
    flat = np.ravel(array)
    return float(flat @ np.linspace(1.0, 2.0, flat.size))


def model_checksums(bundle: str, train: TimeSeriesDataset):
    """(tree text, per node [weights, intercepts, feature_mean, feature_scale]
    checksums) of a model bundle fit on all of `train`.

    A ``kernel-ridge`` node stores w / scale and b - mean . (w / scale): the
    ridge weights w and intercept b it solved on standardised features, with
    the mean and scale of its training rows folded in.  Those rows are the
    ones whose class lies under the node's parent, transformed with the
    bundle's bank; a zero standard deviation reads as 1.  The node is
    unfolded with them, so the checksums are of the arrays bundles held
    before version 5.  A node's one weight row w and intercept b are
    checksummed as the two rows ``[w; -w]`` and ``[b; -b]`` that bundles
    held before version 4, whose exact negations they were, so the pins
    taken then still hold."""
    model = LcpnModel.from_bundle(bundle)
    nodes = []
    for i, parent in enumerate(model.tree.parents):
        arrays = dict.fromkeys(PINNED_ARRAYS)
        weights, intercepts = model.weights[i : i + 1], model.intercepts[i : i + 1]
        if model.bank is not None:
            rows = np.isin(train.labels, sorted(parent.class_set))
            feats = model.bank.transform(train.values[rows])
            mean, scale = feats.mean(axis=0), feats.std(axis=0)
            scale[scale == 0.0] = 1.0
            intercepts = intercepts + mean @ weights[0]
            weights = weights * scale
            arrays.update(feature_mean=mean, feature_scale=scale)
        arrays["weights"] = np.concatenate([weights, -weights])
        arrays["intercepts"] = np.concatenate([intercepts, -intercepts])
        nodes.append([_checksum(arrays[name]) for name in PINNED_ARRAYS])
    return tree_to_text(model.tree), nodes


def run_corpus(root: Path):
    """(digest of every output by name, every report.json document, the
    checksums of every fitted model by fit name) for the corpus run with
    `root` as the working directory."""
    digests, reports, models = {}, [], {}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for ds, (train, unseen) in _datasets().items():
            save_dataset(train, Path(f"{ds}.tsv"))
            save_dataset(unseen, Path(f"{ds}_unseen.tsv"))
            for splitter in SPLITTERS:
                for clf, clf_args in CLASSIFIERS.items():
                    tag = f"{ds}-{splitter}-{clf}"
                    common = ("--data", f"{ds}.tsv", "--splitter", splitter, *clf_args, *COMMON)
                    for mode in ("nested", "flat"):
                        out = f"{tag}-{mode}"
                        stdout = _run(("cv", "--mode", mode, "--outer-folds", "3", *common, "--out", out))
                        digests[f"{out}/stdout"] = _sha(stdout)
                        for name in ("report.json", "folds.csv"):
                            digests[f"{out}/{name}"] = _sha(Path(out, name).read_text())
                        reports.append(json.loads(Path(out, "report.json").read_text()))
                    digests[f"{tag}-fit/stdout"] = _sha(_run(("fit", *common, "--out", f"{tag}-fit")))
                    models[f"{tag}-fit"] = model_checksums(
                        Path(f"{tag}-fit", "model.json").read_text(), load_dataset(f"{ds}.tsv")
                    )
                    out = f"{tag}-predict"
                    stdout = _run(
                        ("predict", "--model", f"{tag}-fit/model.json",
                         "--data", f"{ds}_unseen.tsv", "--out", out)
                    )
                    digests[f"{out}/stdout"] = _sha(stdout)
                    digests[f"{out}/predictions.csv"] = _sha(Path(out, "predictions.csv").read_text())
    finally:
        os.chdir(cwd)
    return digests, reports, models


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return run_corpus(tmp_path_factory.mktemp("golden"))


def test_outputs_are_byte_identical_to_the_golden_digests(corpus):
    digests, _, _ = corpus
    assert sorted(digests) == sorted(GOLDEN)
    changed = sorted(name for name in GOLDEN if digests[name] != GOLDEN[name])
    assert not changed


def test_fitted_models_match_their_trees_and_checksums(corpus):
    _, _, models = corpus
    assert sorted(models) == sorted(GOLDEN_MODELS)
    for name, (tree, nodes) in GOLDEN_MODELS.items():
        got_tree, got_nodes = models[name]
        assert got_tree == tree, name
        assert len(got_nodes) == len(nodes), name
        for got, want in zip(got_nodes, nodes):
            for array, g, w in zip(PINNED_ARRAYS, got, want):
                if w is None:
                    assert g is None, (name, array)
                else:
                    assert g == pytest.approx(w, rel=0, abs=MODEL_TOLERANCE), (name, array)


def test_no_fold_scores_one(corpus):
    _, reports, _ = corpus
    scores = [
        f[key]
        for report in reports
        for f in report["folds"]
        for key in ("inner_mean_score", "outer_test_score", "fc_score")
        if f[key] is not None
    ]
    assert len(scores) == len(_datasets()) * len(SPLITTERS) * 2 * 3 * 5
    assert max(scores) < 1.0


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        found, _, models = run_corpus(Path(tmp))
    print("GOLDEN = {")
    for name, digest in sorted(found.items()):
        print(f'    "{name}": "{digest}",')
    print("}")
    print("GOLDEN_MODELS = {")
    for name, (tree, nodes) in sorted(models.items()):
        print(f'    "{name}": (\n        "{tree}",\n        [')
        for node in nodes:
            print(f"            {node!r},")
        print("        ],\n    ),")
    print("}")
